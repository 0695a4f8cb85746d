import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylp import (
    AlistParseError,
    CodeGenerationError,
    ParityCheckMatrix,
    decode,
    decode_bp,
    decode_dual_ascent,
    emit_alist,
    gen_regular_ldpc,
    is_codeword,
    parse_alist,
)
from oracles import (
    check_neighborhoods,
    check_slice,
    codebook,
    emit_alist_reference,
    interleaved_code,
    is_codeword_reference,
    neighborhoods_by_loop,
    parse_alist_reference,
    var_neighborhoods,
)

# H = [[1,1,0],[0,1,1]]: column degrees 1 2 1, row degrees 2 2.
FIXTURE_ALIST = """\
3 2
2 2
1 2 1
2 2
1
1 2
2
1 2
2 3
"""


# Fixed examples and no example database, so every run tries the same texts.
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=1500)
ODD_TOKENS = ["x", "1.5", "-0", "+3", "1_0", "\u0663", "99999999999999999999", "0x1", "nan"]


@st.composite
def mutated_alists(draw):
    """An alist text of a random small Tanner multigraph (zero-degree
    rows and columns and parallel edges allowed, lines padded with
    zeros), then up to four token or line edits."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    h = [[draw(st.sampled_from([0, 0, 1, 1, 1, 2])) for _ in range(n)] for _ in range(m)]
    cols = [[j + 1 for j in range(m) for _ in range(h[j][i])] for i in range(n)]
    rows = [[i + 1 for i in range(n) for _ in range(h[j][i])] for j in range(m)]
    col_max = max(map(len, cols))
    row_max = max(map(len, rows))
    lines = [[n, m], [col_max, row_max], [len(c) for c in cols], [len(r) for r in rows]]
    lines += [c + [0] * draw(st.integers(0, 1)) for c in cols]
    lines += [r + [0] * draw(st.integers(0, 1)) for r in rows]
    lines = [[str(t) for t in ln] for ln in lines]
    token = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(ODD_TOKENS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete", "dup_line", "drop_line", "blank"]))
        ln = lines[i]
        if op == "replace" and ln:
            ln[draw(st.integers(0, len(ln) - 1))] = draw(token)
        elif op == "insert":
            ln.insert(draw(st.integers(0, len(ln))), draw(token))
        elif op == "delete" and ln:
            del ln[draw(st.integers(0, len(ln) - 1))]
        elif op == "dup_line":
            lines.insert(i, list(ln))
        elif op == "drop_line" and len(lines) > 1:
            del lines[i]
        elif op == "blank":
            lines.insert(i, [])
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    return "\n".join(sep.join(ln) for ln in lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def parse_outcome(parse, text):
    """The code ``parse`` makes of ``text``, or its AlistParseError message."""
    try:
        return parse(text)
    except AlistParseError as exc:
        return str(exc)


def matches_reference(text):
    """``parse_alist`` returns the line-by-line reference's code, or raises
    an AlistParseError with its message; any other error escapes."""
    got = parse_outcome(parse_alist, text)
    want = parse_outcome(parse_alist_reference, text)
    assert type(got) is type(want) and got == want, (got, want)
    return got


@FUZZ
@given(mutated_alists())
def test_parse_alist_fuzz_raises_only_parse_errors(text):
    matches_reference(text)


@FUZZ
@given(st.text(alphabet="0123456789 -\n\tx.", max_size=60))
def test_parse_alist_fuzz_on_raw_text(text):
    matches_reference(text)


BIG = "99999999999999999999"  # beyond int64
FIXTURE_CODE = ParityCheckMatrix(3, [[0, 1], [1, 2]])


@pytest.mark.parametrize(
    "text, outcome",
    [
        (FIXTURE_ALIST.replace("\n", "\r\n"), FIXTURE_CODE),
        (FIXTURE_ALIST.replace("\n1\n1 2\n2\n", "\n1 0\n0 1 2\n2 0 0\n"), FIXTURE_CODE),
        (FIXTURE_ALIST.replace("\n1\n1 2\n2\n", "\n1 -0\n1 -0 2\n2\n"), FIXTURE_CODE),
        (FIXTURE_ALIST.replace("3 2\n", f"{BIG} 2\n", 1),
         f"line 3: expected {BIG} column degrees, got 3"),
        (FIXTURE_ALIST.replace("\n2 2\n1 2 1\n", f"\n{BIG} 2\n1 2 1\n"), FIXTURE_CODE),
        (FIXTURE_ALIST.replace("\n2 2\n1 2 1\n", f"\n{BIG} 2\n1 {BIG} 1\n"),
         f"line 6: column 2 lists 2 checks, degree says {BIG}"),
        (FIXTURE_ALIST.replace("\n2 3\n", f"\n2 {BIG}\n"), "line 9: variable index out of range"),
        (FIXTURE_ALIST.replace("\n2 3\n", f"\n2 -{BIG}\n"), "line 9: variable index out of range"),
        (FIXTURE_ALIST.replace("\n1 2\n2\n1 2\n", "\n1\n2\n1 x\n"),
         "line 6: column 2 lists 1 checks, degree says 2"),
        (FIXTURE_ALIST.replace("\n1 2\n2\n1 2\n", f"\n1 {BIG}\n2\n1 x\n"),
         "line 6: check index out of range"),
    ],
    ids=["crlf", "zero-padding", "minus-zero", "big-header", "big-max-degree",
         "big-degree", "big-entry", "big-negative-entry", "count-before-later-token",
         "range-before-later-token"],
)
def test_parse_alist_fixed_cases(text, outcome):
    assert matches_reference(text) == outcome


@pytest.fixture(scope="module")
def long_alist():
    return emit_alist(gen_regular_ldpc(20000, 3, 6, seed=1))


@pytest.mark.parametrize(
    "token, message",
    [("x", "non-integer token in row entries"), ("30001", "variable index out of range"),
     ("0", "row 10000 lists 5 variables, degree says 6")],
)
def test_parse_alist_names_the_last_line_of_a_long_code(long_alist, token, message):
    # N=20000, M=10000: the last row is text line 4 + N + M = 30004.
    head, last = long_alist.rstrip("\n").rsplit("\n", 1)
    text = head + "\n" + " ".join(last.split()[:-1] + [token]) + "\n"
    assert matches_reference(text) == f"line 30004: {message}"


INT_FORMS = {
    "list": lambda idx: idx,
    "tuple": tuple,
    "int64": lambda idx: np.array(idx, dtype=np.int64),
    "int32": lambda idx: np.array(idx, dtype=np.int32),
    "uint16": lambda idx: np.array(idx).astype(np.uint16),
}
OTHER_FORMS = {
    "float": lambda idx: np.array(idx, dtype=float),
    "bool": lambda idx: [i > 0 for i in idx],
    "2-D": lambda idx: np.array(idx, dtype=np.int64)[None, :],
}


@st.composite
def neighborhood_lists(draw):
    """A variable count and a list of check neighborhoods, each a list, a
    tuple or an integer array, in any order.  Half the lists are valid;
    in the others a check may be empty, negative, out of range, repeat a
    variable, hold floats or bools, or be 2-D."""
    n_vars = draw(st.sampled_from([0] + 4 * list(range(1, 8))))
    valid = st.lists(st.integers(0, max(n_vars - 1, 0)), min_size=1, max_size=5, unique=True)
    faulty = st.one_of(
        st.lists(st.integers(-2, 8), max_size=5),
        valid.map(lambda idx: idx + idx[-1:]),
    )
    forms = INT_FORMS if draw(st.booleans()) else {**INT_FORMS, **OTHER_FORMS}
    indices = valid if draw(st.booleans()) else st.one_of(valid, faulty)
    nbhds = [
        forms[draw(st.sampled_from(sorted(forms)))](draw(indices))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return n_vars, nbhds


class TestParseAlist:
    def test_parallel_edge_is_parse_error(self):
        # Found by the fuzz above: row 1 and column 1 both list their one
        # edge twice.  It used to raise a plain ValueError.
        with pytest.raises(AlistParseError, match="line 6: row 1 lists a variable twice"):
            parse_alist("1 1\n2 2\n2\n2\n1 1\n1 1\n")
        with pytest.raises(AlistParseError, match="line 6: row 1 lists a variable twice"):
            parse_alist("1 1\n1 2\n1\n2\n1\n1 1\n")
        # Only the column repeats the edge: it used to parse, with a column
        # degree of 2 for a variable in one check.
        with pytest.raises(AlistParseError, match="line 5: column 1 lists a check twice"):
            parse_alist("1 1\n2 1\n2\n1\n1 1\n1\n")

    def test_fixture(self):
        code = parse_alist(FIXTURE_ALIST)
        assert (code.n_vars, code.n_checks) == (3, 2)
        assert check_neighborhoods(code)[0].tolist() == [0, 1]
        assert check_neighborhoods(code)[1].tolist() == [1, 2]
        assert var_neighborhoods(code)[1].tolist() == [0, 1]

    def test_round_trip_is_identity(self):
        assert emit_alist(parse_alist(FIXTURE_ALIST)) == FIXTURE_ALIST

    def test_zero_padding_ignored(self):
        padded = FIXTURE_ALIST.replace("\n1\n1 2\n2\n", "\n1 0\n1 2\n2 0\n")
        assert emit_alist(parse_alist(padded)) == FIXTURE_ALIST

    def test_row_degree_count_mismatch(self):
        bad = FIXTURE_ALIST.replace("\n2 2\n1\n", "\n2 2 2\n1\n")
        with pytest.raises(AlistParseError, match="line 4"):
            parse_alist(bad)

    def test_index_out_of_range(self):
        bad = FIXTURE_ALIST.replace("\n2 3\n", "\n2 4\n")
        with pytest.raises(AlistParseError, match="out of range"):
            parse_alist(bad)

    def test_sections_inconsistent(self):
        bad = FIXTURE_ALIST.replace("\n2 3\n", "\n1 3\n")
        with pytest.raises(AlistParseError, match="disagrees"):
            parse_alist(bad)

    def test_entry_count_vs_degree(self):
        bad = FIXTURE_ALIST.replace("\n1 2\n2\n1 2\n", "\n1 2\n2 1\n1 2\n")
        with pytest.raises(AlistParseError, match="line 7"):
            parse_alist(bad)

    def test_non_integer_token(self):
        with pytest.raises(AlistParseError, match="line 1"):
            parse_alist("3 x\n2 2\n")


def array_code_q37():
    """The (4,32) array code of prime q=37: check (a, r) holds variable
    (b, (r + a*b) mod 37) of each block column b."""
    b = np.arange(32)
    checks = [b * 37 + (r + a * b) % 37 for a in range(4) for r in range(37)]
    return ParityCheckMatrix(32 * 37, checks)


class TestEmitAlist:
    # Each code's lines fall into runs of equal degree in a different way.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_regular_ldpc(96, 3, 6, seed=7),
            lambda: gen_regular_ldpc(1002, 3, 6, seed=7),
            array_code_q37,
            lambda: ParityCheckMatrix.from_dense([[0, 0, 1, 1, 1], [0, 0, 0, 1, 1]]),
            lambda: ParityCheckMatrix.from_dense([[1, 0, 1, 0, 1], [1, 0, 0, 0, 1]]),
            lambda: ParityCheckMatrix.from_dense([[1, 1, 1, 0, 0], [0, 1, 1, 0, 0]]),
            lambda: ParityCheckMatrix.from_dense([[0, 1, 0, 1, 0], [0, 1, 1, 0, 0]]),
            lambda: interleaved_code(20, 12, seed=1),
            lambda: interleaved_code(20, 12, seed=1, degrees=(3, 5)),
            lambda: ParityCheckMatrix(5, [[0, 2, 4]]),
            lambda: ParityCheckMatrix(1, [[0]]),
            lambda: parse_alist(FIXTURE_ALIST),
        ],
        ids=["n96", "n1002", "array-q37", "zero-columns-first", "zero-column-in-the-middle",
             "zero-columns-last", "zero-columns-apart", "interleaved", "interleaved-3-5",
             "one-check", "one-edge", "fixture"],
    )
    def test_matches_the_per_line_writer(self, build):
        code = build()
        assert emit_alist(code) == emit_alist_reference(code)

    def test_matches_the_per_line_writer_on_random_codes(self):
        rng = np.random.default_rng(2024)
        for i in range(600):
            n, m = rng.integers(1, 40), rng.integers(1, 30)
            h = (rng.random((m, n)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            if i % 2:
                h[:, rng.integers(0, n, size=rng.integers(1, 4))] = 0
            h[h.sum(axis=1) == 0, rng.integers(0, n)] = 1
            code = ParityCheckMatrix.from_dense(h)
            assert emit_alist(code) == emit_alist_reference(code), h


class TestParityCheckMatrix:
    def test_transpose_consistency(self):
        code = gen_regular_ldpc(60, 3, 6, seed=0)
        for j, nbhd in enumerate(check_neighborhoods(code)):
            for i in nbhd:
                assert j in var_neighborhoods(code)[i]
        for i, nbhd in enumerate(var_neighborhoods(code)):
            for j in nbhd:
                assert i in check_neighborhoods(code)[j]

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            ParityCheckMatrix(3, [np.array([0, 0, 1])])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            ParityCheckMatrix(3, [np.array([0, 3])])

    def test_rejects_empty_check(self):
        with pytest.raises(ValueError, match="no variables"):
            ParityCheckMatrix(3, [np.array([], dtype=int)])

    @pytest.mark.parametrize(
        "nbhd",
        [[0.7, 1.2], [0.0, 1.9], [True, False], ["0", "1"], [[0, 1], [1, 2]]],
        ids=["0.7", "1.9", "bool", "str", "2-D"],
    )
    def test_rejects_a_check_that_is_not_a_1d_integer_array(self, nbhd):
        # Each of these used to build a check from a cast of its entries,
        # or, for the 2-D one, fail inside numpy.
        message = "check 1 must be a 1-D array of integer variable indices"
        with pytest.raises(ValueError, match=message):
            ParityCheckMatrix(3, [[1, 2], nbhd])

    def test_rejects_a_ragged_check_in_first_fault_order(self):
        # numpy cannot build an array from it; that used to raise numpy's
        # "inhomogeneous shape" error, which names no check.
        message = "check 1 must be a 1-D array of integer variable indices"
        with pytest.raises(ValueError, match=message):
            ParityCheckMatrix(3, [[0, 1], [[0, 1], [2]]])
        with pytest.raises(ValueError, match="check 0 has a parallel edge"):
            ParityCheckMatrix(3, [[0, 0], [[0, 1], [2]]])
        with pytest.raises(ValueError, match=message):
            ParityCheckMatrix(3, [[0, 1], [[0, 1], [2]], [0, 0]])

    @pytest.mark.parametrize("h", [[1, 0, 1], [[[1, 1]]]], ids=["1-D", "3-D"])
    def test_from_dense_rejects_a_matrix_that_is_not_2d(self, h):
        with pytest.raises(ValueError, match="must be 2-D"):
            ParityCheckMatrix.from_dense(h)

    @pytest.mark.parametrize(
        "h", [[[1, 2, 0], [0, 1, 1]], [[1, 0.5, 1]], np.array([[1, 0], [0, 2]], dtype=np.uint8)]
    )
    def test_from_dense_rejects_entries_other_than_0_and_1(self, h):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            ParityCheckMatrix.from_dense(h)

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(neighborhood_lists())
    def test_constructor_equals_the_per_check_loop(self, case):
        n_vars, nbhds = case
        try:
            want = neighborhoods_by_loop(n_vars, nbhds)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ParityCheckMatrix(n_vars, nbhds)
            assert str(got.value) == str(exc)
            return
        code = ParityCheckMatrix(n_vars, nbhds)
        for got, ref in zip((check_neighborhoods(code), var_neighborhoods(code)), want):
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
        for a in check_neighborhoods(code):
            assert a.dtype == np.int64 and not a.flags.writeable

    @pytest.mark.parametrize(
        "code",
        [
            gen_regular_ldpc(48, 3, 6, seed=3),
            interleaved_code(20, 12, seed=1),
            # Checks, and the variables within each, listed out of order.
            ParityCheckMatrix(12, [[7, 2, 9], [11, 0, 5, 3], [4, 10, 1, 8], [6, 2, 0, 11]][::-1]),
            parse_alist(emit_alist(gen_regular_ldpc(36, 3, 4, seed=4))),
            ParityCheckMatrix.from_dense(
                [[1, 1, 0, 1, 0, 0, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 1, 0, 1, 0]]
            ),
        ],
        ids=["regular", "interleaved", "permuted", "parsed", "dense-zero-column"],
    )
    def test_pickle_round_trip_decodes_the_same(self, code):
        again = pickle.loads(pickle.dumps(code))
        assert again == code and again is not code
        # Every table the code hands out refuses a write, on both copies.
        for c in (code, again):
            tables = {name: getattr(c, name) for name in ("edge_var", "check_ptr", "check_degrees",
                      "var_degrees", "var_divisor", "isolated_vars")}
            tables.update({f"checks_by_degree[{d}]": a for d, a in c.checks_by_degree.items()})
            tables.update({f"check_columns[{i}]": a for i, a in enumerate(c.check_columns)})
            assert [name for name, a in tables.items() if a.flags.writeable] == []
            with pytest.raises(TypeError):
                c.checks_by_degree[1] = c.check_ptr
        gammas = np.random.default_rng(5).normal(1.5, 1.5, size=(3, code.n_vars))
        for decoder in (decode, decode_bp, decode_dual_ascent):
            for gamma in gammas:
                a, b = decoder(gamma, code), decoder(gamma, again)
                assert np.array_equal(a.x, b.x)
                assert (a.iterations, a.status) == (b.iterations, b.status)
                assert np.array_equal(a.hard_decision, b.hard_decision)

    def test_rejects_a_fractional_n_vars(self):
        # It used to construct, then fail in var_degrees, emit_alist and
        # decode; numpy integers still count.
        with pytest.raises(TypeError):
            ParityCheckMatrix(5.5, [[0, 1]])
        blank = ParityCheckMatrix.__new__(ParityCheckMatrix)
        with pytest.raises(TypeError):
            blank.__setstate__((5.5, np.array([0, 1]), np.array([0, 2])))
        assert ParityCheckMatrix(np.int64(3), [[0, 1]]) == ParityCheckMatrix(3, [[0, 1]])

    def test_unpickling_validates(self):
        blank = ParityCheckMatrix.__new__(ParityCheckMatrix)
        with pytest.raises(ValueError, match="check 0 has a parallel edge"):
            blank.__setstate__((3, np.array([1, 1, 0, 2]), np.array([0, 2, 4])))
        for check_ptr in ([], [0]):
            with pytest.raises(ValueError, match="need at least one check"):
                blank.__setstate__((3, np.arange(0), np.array(check_ptr, dtype=np.int64)))

    @pytest.mark.parametrize(
        "edge_var, check_ptr, message",
        [
            # The pointers used to cut the edges they cover and drop the rest.
            ([0, 1, 1, 2, 2, 3], [0, 2, 4], "check pointers do not match the edges"),
            ([0, 1, 1, 2, 2, 3], [0, 2, 8], "check pointers do not match the edges"),
            ([0, 1, 1, 2, 2, 3], [0, 4, 2, 6], "negative"),
            ([1, 0, 2, 3], [0, 2, 4], "check 0 lists its variables out of order"),
            ([0, 1, 3, 2, 1], [0, 2, 5], "check 1 lists its variables out of order"),
            # The pointers must start at 0.
            ([0, 1, 2, 3], [1, 3, 5], "check pointers do not match the edges"),
        ],
        ids=["short", "long", "decreasing", "unsorted-check-0", "unsorted-check-1", "offset"],
    )
    def test_unpickling_takes_only_a_sorted_csr_pair(self, edge_var, check_ptr, message):
        blank = ParityCheckMatrix.__new__(ParityCheckMatrix)
        with pytest.raises(ValueError, match=message):
            blank.__setstate__((4, np.array(edge_var), np.array(check_ptr)))

    @pytest.mark.parametrize("edge_var, check_ptr", [([0.0, 1.5, 2.0, 3.0], [0, 2, 4]),
                                                     ([0, 1, 2, 3], [0.0, 2.0, 4.0])])
    def test_unpickling_refuses_a_pair_that_is_not_integer(self, edge_var, check_ptr):
        # Cast to integers, 1.5 would become variable 1.
        blank = ParityCheckMatrix.__new__(ParityCheckMatrix)
        with pytest.raises(TypeError):
            blank.__setstate__((4, np.array(edge_var), np.array(check_ptr)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: parse_alist(FIXTURE_ALIST),
            lambda: parse_alist(emit_alist(gen_regular_ldpc(60, 3, 6, seed=0))),
            lambda: parse_alist(emit_alist(interleaved_code(20, 12, seed=1))),
            lambda: gen_regular_ldpc(6, 3, 6, seed=1),
            lambda: gen_regular_ldpc(96, 3, 6, seed=42),
            lambda: gen_regular_ldpc(48, 3, 4, seed=0),
            lambda: ParityCheckMatrix.from_dense([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]),
        ],
        ids=["fixture", "parsed-regular", "parsed-interleaved", "tiny", "regular",
             "regular-3-4", "dense"],
    )
    def test_codes_built_from_csr_equal_the_constructors(self, build):
        # Parsing, generation and from_dense hand the constructor's checks
        # a CSR pair they already sorted; it must be the one the
        # constructor builds from the checks in any order.
        code = build()
        rng = np.random.default_rng(0)
        want = ParityCheckMatrix(code.n_vars, [rng.permutation(nb) for nb in check_neighborhoods(code)])
        assert code == want and code.n_checks == want.n_checks
        for got in (code.edge_var, code.check_ptr):
            assert got.dtype == np.int64 and not got.flags.writeable

    def test_dense_round_trip(self):
        h = np.array([[1, 1, 0], [0, 1, 1]])
        assert np.array_equal(ParityCheckMatrix.from_dense(h).to_dense(), h)

    def test_edge_arrays(self):
        code = parse_alist(FIXTURE_ALIST)
        assert code.edge_var.tolist() == [0, 1, 1, 2]
        assert code.check_ptr.tolist() == [0, 2, 4]
        assert code.var_degrees.tolist() == [1, 2, 1]
        assert code.checks_by_degree[2].shape == (2, 2)


    def test_checks_by_degree_select_each_group(self):
        # v[rows] is the group's (m_d, d) rows, one check per row in check
        # order, and check_columns lists the same variables column-wise.
        for code in (gen_regular_ldpc(30, 3, 6, seed=2), interleaved_code(20, 12, seed=1)):
            v = np.arange(code.n_edges, dtype=float)
            for (d, rows), cols in zip(code.checks_by_degree.items(), code.check_columns):
                js = np.flatnonzero(code.check_degrees == d)
                assert np.array_equal(v[rows], [v[check_slice(code, j)] for j in js])
                assert np.array_equal(cols, code.edge_var[rows].T)

    @pytest.mark.parametrize(
        "code",
        [
            gen_regular_ldpc(30, 3, 6, seed=2),
            interleaved_code(20, 12, seed=1),
            # Two degrees, each one's checks adjacent.
            ParityCheckMatrix(
                20,
                sorted(check_neighborhoods(interleaved_code(20, 12, seed=1, degrees=(3, 5))), key=len),
            ),
        ],
        ids=["regular", "interleaved", "degree-sorted"],
    )
    def test_map_checks_equals_per_check_loop(self, code):
        # One (m, d) view for the regular code, edge-index rows for the
        # others (whether or not a degree's checks are adjacent); either
        # way each check's row comes back in its own edges.
        v, w = np.random.default_rng(3).normal(size=(2, code.n_edges))
        keep = v.copy(), w.copy()
        got = code.map_checks(lambda t: np.cumsum(t, axis=1), v)
        # Two arrays: the rows of each check come to fn side by side.
        got2 = code.map_checks(lambda s, t: s * t.max(axis=1, keepdims=True), v, w)
        want, want2 = np.empty_like(v), np.empty_like(v)
        for j in range(code.n_checks):
            sl = check_slice(code, j)
            want[sl] = np.cumsum(v[sl])
            want2[sl] = v[sl] * w[sl].max()
        assert np.array_equal(got, want)
        assert np.array_equal(got2, want2)
        assert np.array_equal(v, keep[0]) and np.array_equal(w, keep[1])

    def test_map_checks_hands_a_one_degree_code_all_rows_at_once(self):
        code = gen_regular_ldpc(30, 3, 6, seed=2)
        shapes = []

        def double(t):
            shapes.append(t.shape)
            return 2.0 * t

        v = np.arange(code.n_edges, dtype=float)
        assert np.array_equal(code.map_checks(double, v), 2.0 * v)
        assert shapes == [(code.n_checks, 6)]

    def test_map_checks_rejects_a_vector_that_is_not_edge_flat(self):
        code = interleaved_code(20, 12, seed=1)
        with pytest.raises(ValueError, match="edge-flat"):
            code.map_checks(lambda t: t, np.zeros(code.n_edges + 1))
        # Every array is checked, not only the first.
        with pytest.raises(ValueError, match="edge-flat"):
            code.map_checks(lambda s, t: s, np.zeros(code.n_edges), np.zeros(code.n_edges - 1))


class TestGenRegular:
    def test_long_ensemble_code(self):
        code = gen_regular_ldpc(1002, 3, 6, seed=0)
        assert code.n_checks == 501
        assert np.all(code.check_degrees == 6)
        assert np.all(code.var_degrees == 3)

    def test_tiny_code(self):
        code = gen_regular_ldpc(6, 3, 6, seed=1)
        assert code.n_checks == 3
        assert np.all(code.check_degrees == 6)
        assert np.all(code.var_degrees == 3)

    def test_deterministic(self):
        a = gen_regular_ldpc(96, 3, 6, seed=42)
        b = gen_regular_ldpc(96, 3, 6, seed=42)
        assert a == b
        assert a != gen_regular_ldpc(96, 3, 6, seed=43)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            gen_regular_ldpc(10, 3, 7, seed=0)

    @pytest.mark.parametrize("n, var_deg, check_deg", [(0, 3, 6), (-6, 3, 6), (6, 0, 6), (6, 3, -3)])
    def test_rejects_a_parameter_below_one(self, n, var_deg, check_deg):
        with pytest.raises(ValueError, match="must be at least 1"):
            gen_regular_ldpc(n, var_deg, check_deg, seed=0)

    @pytest.mark.parametrize(
        "n, var_deg, check_deg, message",
        [(24.0, 3, 6, "n must be an integer, got 24.0"),
         (True, 3, 6, "n must be an integer, got True"),
         (24, True, 6, "var_deg must be an integer, got True"),
         (24, 3, 6.0, "check_deg must be an integer, got 6.0")],
    )
    def test_rejects_a_size_that_is_not_an_integer(self, n, var_deg, check_deg, message):
        # A float length used to fail inside numpy, naming no argument.
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_regular_ldpc(n, var_deg, check_deg, seed=0)

    def test_handshake_identity(self):
        code = gen_regular_ldpc(120, 3, 6, seed=7)
        assert code.var_degrees.sum() == code.check_degrees.sum() == 120 * 3

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be at least 0, got -1"), (2.5, "seed must be an integer, got 2.5"),
         (None, "seed must be an integer, got None"), (True, "seed must be an integer, got True")],
    )
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed, message):
        # A negative seed used to fail inside numpy, naming neither the
        # argument nor its value.
        with pytest.raises(ValueError, match=message):
            gen_regular_ldpc(24, 3, 6, seed)

    def test_generation_failure_bounded(self):
        # A check of degree above n cannot avoid parallel edges, so no draw is made.
        for n, var_deg, check_deg in [(2, 3, 6), (4, 4, 8), (3, 4, 6)]:
            message = f"check_deg must be at most n, got {check_deg} > {n}"
            with pytest.raises(ValueError, match=message):
                gen_regular_ldpc(n, var_deg, check_deg, seed=0)

    def test_draw_budget_runs_out(self):
        # Six checks over six variables must each hold all six, which a
        # draw almost never deals: every one of the draws is rejected.
        with pytest.raises(CodeGenerationError, match="in 1000 attempts"):
            gen_regular_ldpc(6, 6, 6, seed=0)

    @pytest.mark.parametrize(
        "n, digest, alist_digest",
        [(24, "b05e54c7729256637b7552ed1d4105bbaa5bd4cba2c8a98f634304facac632c3",
          "4d5305b5a9b7133f53c6cee8e3db6ffec8f40a37b4bccbf91bb442be07dd39c3"),
         (96, "a3d8efcdf6da5f861e21b7d0e8bf73ce4e85588af3c129d36748c58518c82816",
          "4b7f95d4790aa3471d0e02014b74a2c99d9e007307cfe5432f03a3d6b3b17a82"),
         (1002, "bbab66aa817723d0f9fbcaed41b5b2977c8473e49dffc76920ebef3f9ad48a0f",
          "9ec27185cd84778b8f29fc70ba02270a2b5c3a5d6bbc76393481864eea87b8ba")],
        ids=["24", "96", "1002"],
    )
    def test_seeded_codes_are_pinned(self, n, digest, alist_digest):
        # The CLI tests' code and perfbench's two regular codes: a change to
        # the draws or to the parallel-edge test would move the first digest,
        # and a change to the alist writer the second (`polylp gen-code
        # --seed 7` writes this text).
        code = gen_regular_ldpc(n, 3, 6, seed=7)
        assert hashlib.sha256(code.edge_var.astype("<i8").tobytes()).hexdigest() == digest
        assert hashlib.sha256(emit_alist(code).encode()).hexdigest() == alist_digest

    def test_emit_parse_round_trip(self):
        code = gen_regular_ldpc(48, 3, 6, seed=3)
        again = parse_alist(emit_alist(code))
        assert again == code


class TestIsCodeword:
    def test_even_parity(self):
        h = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])
        assert is_codeword(h, np.array([1, 1, 0, 0]))

    def test_odd_parity(self):
        h = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])
        assert not is_codeword(h, np.array([1, 0, 0, 0]))

    def test_zero_word(self):
        code = gen_regular_ldpc(30, 3, 6, seed=2)
        assert is_codeword(code, np.zeros(30, dtype=np.uint8))

    def test_length_mismatch(self):
        h = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])
        with pytest.raises(ValueError):
            is_codeword(h, np.array([1, 0, 0]))

    # Bool and unsigned words take the rule's one-max branch.
    @pytest.mark.parametrize(
        "bad", [0.5, -1, 2, np.nan, np.uint8(2), np.uint16(2), np.int8(-1)],
        ids=["0.5", "-1", "2", "nan", "uint8-2", "uint16-2", "int8--1"],
    )
    def test_rejects_non_bits(self, bad):
        h = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])
        with pytest.raises(ValueError, match="0 or 1"):
            is_codeword(h, np.array([1, 1, 0, bad], dtype=np.asarray(bad).dtype))

    def test_matches_dense_parity_on_mixed_degrees(self):
        code = interleaved_code(20, 12, seed=1)
        h = code.to_dense().astype(np.int64)
        rng = np.random.default_rng(4)
        words = np.concatenate([rng.integers(0, 2, (300, 20)), codebook(h)[:20]])
        verdicts = [is_codeword(code, w) for w in words]
        assert verdicts == [not (h @ w % 2).any() for w in words]
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, float])
    def test_accepts_bits_of_any_dtype(self, dtype):
        h = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])
        assert is_codeword(h, np.array([1, 1, 0, 0], dtype=dtype))
        assert not is_codeword(h, np.array([1, 0, 0, 0], dtype=dtype))

    def test_verdicts_and_errors_match_the_reference(self):
        # Bool words skip the 0/1 scan and the copy; every word gets the
        # old verdict or the old error, of the same type and message.
        code = interleaved_code(20, 12, seed=1)
        h = code.to_dense().astype(np.int64)
        rng = np.random.default_rng(6)
        words = [*codebook(h)[1:6], *rng.integers(0, 2, (6, 20))]
        cases = []
        for w in words:
            cases += [w.astype(dtype) for dtype in
                      (bool, np.uint8, np.uint16, np.int8, np.int64, np.float32, float, object)]
            cases += [w.tolist(), w[:-1] > 0, np.append(w, 0).astype(bool), w[None] > 0]
            for bad in (2, -1, 0.5, np.nan, np.inf, None):
                x = w.astype(object if bad is None else np.asarray(bad).dtype)
                x[3] = bad
                cases.append(x)
        verdicts = set()
        for x in cases:
            want, got = (self.outcome(f, code, x) for f in (is_codeword_reference, is_codeword))
            assert got == want, x
            verdicts.add(want if isinstance(want, bool) else want[1])
        assert verdicts == {True, False, "expected a length-20 vector",
                            "codeword entries must be 0 or 1"}

    @staticmethod
    def outcome(f, code, x):
        try:
            return f(code, x)
        except Exception as e:  # noqa: BLE001 - the type and message are compared
            return type(e), str(e)


@pytest.mark.parametrize("decoder", [decode, decode_bp, decode_dual_ascent])
@pytest.mark.parametrize(
    "gamma,message",
    [
        (np.ones(2), "expected a length-3 LLR vector"),
        (np.ones((3, 1)), "expected a length-3 LLR vector"),
        (np.array([0.5, np.nan, 1.0]), "LLR vector must be finite"),
        (np.array([0.5, -np.inf, 1.0]), "LLR vector must be finite"),
    ],
)
def test_decoders_share_one_llr_check(decoder, gamma, message):
    code = ParityCheckMatrix.from_dense([[1, 1, 1]])
    with pytest.raises(ValueError, match=message):
        decoder(gamma, code)
