"""Binary linear codes as sparse parity-check matrices.

Provides the Tanner-graph view used by the decoders, the alist text
format, and a configuration model sampler for random regular LDPC
ensembles.
"""

from __future__ import annotations

import numbers
import operator
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, chain, groupby, islice
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np
from numpy.typing import ArrayLike, NDArray


class AlistParseError(ValueError):
    """Malformed alist text; the message names the offending line."""


class CodeGenerationError(RuntimeError):
    """Random ensemble sampling failed within the retry budget."""


class ParityCheckMatrix:
    """Sparse M x N parity-check matrix with degree and edge-group queries.

    Checks and variables are 0-based internally.  The matrix is stored as
    one CSR pair: ``edge_var`` lists the variable of each edge,
    edges grouped by check and sorted within it, and the edges of check
    ``j`` are ``check_ptr[j]:check_ptr[j+1]``.  Selecting the entries
    ``edge_var`` names from a length-N vector realizes the checks' gather
    operator, and summing onto the variables realizes its transpose.
    Instances are immutable after construction and safe to share across
    workers: every table a code hands out is read-only.
    """

    def __init__(self, n_vars: int, check_neighborhoods: list[ArrayLike]):
        nbhds = [_index_array(nb) for nb in check_neighborhoods]
        # The checks before the first one that is not a 1-D integer array
        # are validated together; a fault among them comes first.
        m = next((j for j, a in enumerate(nbhds) if a is None), len(nbhds))
        sizes = np.array([a.size for a in nbhds[:m]], dtype=np.int64)
        flat = np.concatenate(nbhds[:m] or [[]], dtype=np.int64, casting="unsafe")
        flat = flat[np.lexsort((flat, np.repeat(np.arange(m), sizes)))]
        self._set_csr(n_vars, flat, sizes, np.arange(m, len(nbhds)))

    def _set_csr(self, n_vars: int, flat: ArrayLike, sizes: ArrayLike,
                 malformed: NDArray[np.int64] = np.arange(0)) -> None:
        """Validate and store a CSR pair, edges strictly increasing within each
        check; ``malformed`` numbers later checks that are not 1-D integer arrays."""
        n_vars = operator.index(n_vars)
        if n_vars <= 0:
            raise ValueError("n_vars must be positive")
        flat, sizes = (np.asarray(a).astype(np.int64, casting="safe") for a in (flat, sizes))
        if sizes.size + malformed.size == 0:
            raise ValueError("need at least one check")
        if sizes.sum() != flat.size:
            raise ValueError("check pointers do not match the edges")
        check_of = np.repeat(np.arange(sizes.size), sizes)
        step = np.where(np.diff(check_of) == 0, np.diff(flat), 1)
        fault = _first_fault(
            (np.flatnonzero(sizes == 0), "has no variables"),
            (check_of[(flat < 0) | (flat >= n_vars)], "has a variable index out of range"),
            (check_of[1:][step == 0], "has a parallel edge"),
            (check_of[1:][step < 0], "lists its variables out of order"),
            (malformed, "must be a 1-D array of integer variable indices"),
        )
        if fault:
            raise ValueError("check {} {}".format(*fault))
        self.n_vars = n_vars
        self.n_checks = sizes.size
        self.edge_var: NDArray[np.int64] = _frozen(flat)
        self.check_ptr: NDArray[np.int64] = _frozen(np.concatenate([[0], np.cumsum(sizes)]))

    @classmethod
    def _from_csr(cls, n_vars: int, flat: ArrayLike, sizes: ArrayLike) -> "ParityCheckMatrix":
        """A code from a CSR pair that is already sorted, with the constructor's checks."""
        code = cls.__new__(cls)
        code._set_csr(n_vars, flat, sizes)
        return code

    @classmethod
    def from_dense(cls, h: ArrayLike) -> "ParityCheckMatrix":
        h = np.asarray(h)
        if h.ndim != 2:
            raise ValueError("dense parity-check matrix must be 2-D")
        if not _all_bits(h):
            raise ValueError("dense parity-check matrix entries must be 0 or 1")
        return cls._from_csr(h.shape[1], np.nonzero(h)[1], np.count_nonzero(h, axis=1))

    def to_dense(self) -> NDArray[np.uint8]:
        h = np.zeros((self.n_checks, self.n_vars), dtype=np.uint8)
        h[np.repeat(np.arange(self.n_checks), self.check_degrees), self.edge_var] = 1
        return h

    @cached_property
    def check_degrees(self) -> NDArray[np.int64]:
        return _frozen(np.diff(self.check_ptr))

    @cached_property
    def var_degrees(self) -> NDArray[np.int64]:
        return _frozen(np.bincount(self.edge_var, minlength=self.n_vars))

    @cached_property
    def var_divisor(self) -> NDArray[np.float64]:
        """Variable degrees as floats, with 1 in place of 0."""
        return _frozen(np.maximum(self.var_degrees, 1).astype(float))

    @cached_property
    def isolated_vars(self) -> NDArray[np.int64]:
        """Indices of the variables that are in no check."""
        return _frozen(np.flatnonzero(self.var_degrees == 0))

    @property
    def n_edges(self) -> int:
        return self.edge_var.size

    @cached_property
    def checks_by_degree(self) -> Mapping[int, NDArray[np.int64]]:
        """Edge-index matrix of shape (m_d, d) for each distinct degree d."""
        degs, starts = self.check_degrees, self.check_ptr[:-1]
        return MappingProxyType({int(d): _frozen(starts[degs == d][:, None] + np.arange(int(d)))
                                 for d in np.unique(degs)})

    def map_checks(self, fn: Callable[..., NDArray], *arrays: NDArray) -> NDArray:
        """Apply a row function to each degree group of one or more edge-flat arrays.

        ``fn`` maps a group's (m_d, d) rows of each array, one check per
        row, to a new array of that shape and must not write to its
        inputs; the result is edge-flat with the first array's dtype.  A
        code with one check degree hands ``fn`` each array whole as an
        (m, d) view and returns its rows without a scatter.
        """
        for a in arrays:
            if a.shape != self.edge_var.shape:
                raise ValueError(f"expected an edge-flat vector of length {self.edge_var.size}")
        groups = self.checks_by_degree
        if len(groups) == 1:
            (d,) = groups
            out = fn(*[a.reshape(-1, d) for a in arrays])
            return out.reshape(-1).astype(arrays[0].dtype, copy=False)
        out = np.empty_like(arrays[0])
        for rows in groups.values():
            out[rows] = fn(*[a[rows] for a in arrays])
        return out

    @cached_property
    def check_columns(self) -> tuple[NDArray[np.int64], ...]:
        """Variable indices of each degree group as a C-ordered (d, m_d)
        array: column j lists the variables of the group's j-th check."""
        return tuple(_frozen(self.edge_var[rows].T.copy())
                     for rows in self.checks_by_degree.values())

    @property
    def design_rate(self) -> float:
        return 1.0 - self.n_checks / self.n_vars

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParityCheckMatrix):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and np.array_equal(self.check_ptr, other.check_ptr)
            and np.array_equal(self.edge_var, other.edge_var)
        )

    def __repr__(self) -> str:
        return f"ParityCheckMatrix(n_vars={self.n_vars}, n_checks={self.n_checks})"

    # Workers receive the CSR pair, which unpickling checks as it is: only a
    # sorted pair unpickles.
    def __getstate__(self) -> tuple:
        return self.n_vars, self.edge_var, self.check_ptr

    def __setstate__(self, state: tuple) -> None:
        n_vars, edge_var, check_ptr = state
        if np.ravel(check_ptr)[:1].any():
            raise ValueError("check pointers do not match the edges")
        self._set_csr(n_vars, edge_var, np.diff(check_ptr))


def _frozen(a: NDArray) -> NDArray:
    """``a``, made read-only: no table a code builds changes after it is built."""
    a.flags.writeable = False
    return a


def _index_array(nb: ArrayLike) -> NDArray | None:
    """``nb`` as a 1-D integer array, or None when it is not one."""
    try:
        a = np.asarray(nb)
    except ValueError:  # ragged, e.g. [[0, 1], [2]]
        return None
    return a if a.ndim == 1 and (a.size == 0 or a.dtype.kind in "iu") else None


def _first_fault(*faults: tuple[NDArray[np.int64], str]) -> tuple[int, str] | None:
    """The lowest index among ``(indices, fault)`` pairs, with its fault;
    on a tie the earlier pair wins.  None when every pair is empty."""
    found = [(int(js.min()), fault) for js, fault in faults if js.size]
    return min(found, key=lambda f: f[0]) if found else None


def check_integer(name: str, value: object, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_real(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_positive(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive finite real, not a bool; nan fails."""
    check_real(name, value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _all_bits(x: NDArray) -> bool:
    """True iff every entry of ``x`` is 0 or 1; a bool array holds nothing else,
    and an unsigned one takes one max."""
    if x.dtype == bool:
        return True
    if x.dtype.kind == "u":
        return bool(np.maximum.reduce(x, axis=None, initial=0) <= 1)
    return bool(((x == 0) | (x == 1)).all())


def is_codeword(code: ParityCheckMatrix, x: ArrayLike) -> bool:
    """True iff every check neighborhood of ``x`` sums to even parity; a bool
    word, such as a decoder's ``beliefs < 0``, needs no 0/1 check or copy."""
    x = np.asarray(x)
    if x.shape != (code.n_vars,):
        raise ValueError(f"expected a length-{code.n_vars} vector")
    if not _all_bits(x):
        raise ValueError("codeword entries must be 0 or 1")
    bits = x if x.dtype == bool else x.astype(np.uint8, copy=False)
    # Parity of each check is the XOR down its column: d vector ops.
    for cols in code.check_columns:
        if np.bitwise_xor.reduce(bits[cols], axis=0).any():
            return False
    return True


def check_llrs(code: ParityCheckMatrix, gamma: ArrayLike) -> NDArray[np.float64]:
    """Validate a decoder's LLR input: a finite length-N vector, as floats."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (code.n_vars,):
        raise ValueError(f"expected a length-{code.n_vars} LLR vector")
    if not np.isfinite(gamma).all():
        raise ValueError("LLR vector must be finite")
    return gamma


def parse_alist(text: str) -> ParityCheckMatrix:
    """Parse alist text into a :class:`ParityCheckMatrix`.

    Layout: ``N M``, then the maximum column/row degrees, then N column
    degrees, M row degrees, N per-column lines of 1-based check indices,
    and M per-row lines of 1-based variable indices.  Tokens are read by
    ``int()`` and zero padding is ignored.  Raises :class:`AlistParseError`
    naming the first offending line.
    """
    tokens = [ln.split() for ln in text.splitlines()]
    # Drop trailing blank lines but keep interior numbering intact.
    while tokens and not tokens[-1]:
        tokens.pop()
    # ``+=`` stops at a token int() rejects and keeps the values before it,
    # so their count finds line ``bad``, the first holding such a token.
    values: list[int] = []
    with suppress(ValueError):
        values += map(int, chain.from_iterable(tokens))
    starts = [0, *accumulate(map(len, tokens))]
    bad = int(np.searchsorted(starts, len(values), "right")) - 1

    def head(i: int, label: str, size: int, wrong: str) -> list[int]:
        """Header line ``i``, which must hold ``size`` integers."""
        if i >= bad:
            what = "missing" if i >= len(tokens) else "non-integer token in"
            raise AlistParseError(f"line {i + 1}: {what} {label}")
        got = values[starts[i] : starts[i + 1]]
        if len(got) != size:
            raise AlistParseError(f"line {i + 1}: " + wrong.format(len(got)))
        return got

    n, m = head(0, "size header", 2, "expected 'N M'")
    if n <= 0 or m <= 0:
        raise AlistParseError("line 1: dimensions must be positive")
    max_col, max_row = head(1, "maximum degrees", 2, "expected maximum column and row degree")
    col_degs = head(2, "column degrees", n, f"expected {n} column degrees, got {{}}")
    row_degs = head(3, "row degrees", m, f"expected {m} row degrees, got {{}}")
    if min(col_degs) < 0 or max(col_degs) > max_col:
        raise AlistParseError("line 3: column degree exceeds declared maximum")
    if min(row_degs) < 1 or max(row_degs) > max_row:
        raise AlistParseError("line 4: row degree out of range")

    expected = 4 + n + m
    if len(tokens) != expected:
        raise AlistParseError(
            f"line {min(len(tokens), expected) + 1}: expected {expected} lines, got {len(tokens)}"
        )

    # Entry line k (columns, then rows) is text line k + 5.  The lines from
    # ``bad`` on list nothing, and the non-integer token comes first.  A
    # value beyond int64 gives a float or object array; it fails the checks.
    line = np.repeat(np.arange(bad - 4), np.diff(starts[4 : bad + 1]))
    entries = np.array(values[starts[4] : starts[bad]])
    line, entries = line[entries != 0], entries[entries != 0]
    found = np.bincount(line, minlength=n + m)
    degs = col_degs + row_degs
    fault = _first_fault(
        (np.arange(bad - 4, n + m)[:1], "non-integer token in {kind} entries"),
        (np.flatnonzero(found != degs), "{kind} {k} lists {got} {item}s, degree says {deg}"),
        (line[(entries < 1) | (entries > np.where(line < n, m, n))], "{item} index out of range"),
    )
    if fault:
        k, what = fault
        kind, item, i = ("column", "check", k) if k < n else ("row", "variable", k - n)
        what = what.format(kind=kind, item=item, k=i + 1, got=found[k], deg=degs[k])
        raise AlistParseError(f"line {k + 5}: {what}")

    # The two sections must describe the same matrix.  Key each edge by
    # (row, variable), as listed by the rows and by the columns; sorted, the
    # row keys are the code's CSR pair.
    split = int(np.searchsorted(line, n))
    by_row = np.sort((line[split:] - n) * n + entries[split:] - 1)
    by_col = np.sort((entries[:split] - 1) * n + line[:split])
    # Equal keys are the common case, and a compare costs far less than setxor1d.
    odd = by_row[:0] if np.array_equal(by_row, by_col) else np.setxor1d(by_row, by_col)
    fault = _first_fault(
        (odd // n, "disagrees with the column section"),
        (by_row[1:][np.diff(by_row) == 0] // n, "lists a variable twice"),
    )
    if fault:
        j, what = fault
        raise AlistParseError(f"line {4 + n + j + 1}: row {j + 1} {what}")
    # The rows name each edge once, so a key the columns repeat is a
    # column that lists a check twice.
    twice = by_col[1:][np.diff(by_col) == 0] % n
    if twice.size:
        k = int(twice.min())
        raise AlistParseError(f"line {4 + k + 1}: column {k + 1} lists a check twice")

    return ParityCheckMatrix._from_csr(n, by_row % n, row_degs)


def emit_alist(code: ParityCheckMatrix) -> str:
    """Serialize to canonical alist text: unpadded, single-spaced, 1-based."""
    # A column lists its checks in check order: the check of each edge,
    # with the edges in a stable sort by variable.
    checks = np.repeat(np.arange(code.n_checks), code.check_degrees)
    by_var = checks[np.argsort(code.edge_var, kind="stable")]
    values = iter((np.concatenate([by_var, code.edge_var]) + 1).tolist())
    var_degs, check_degs = code.var_degrees.tolist(), code.check_degrees.tolist()
    out = [f"{code.n_vars} {code.n_checks}", f"{max(var_degs)} {max(check_degs)}",
           " ".join(map(str, var_degs)), " ".join(map(str, check_degs))]
    # Each run of k lines of one degree d is one format over its k * d values.
    for d, run in groupby(var_degs + check_degs):
        k = len(list(run))
        out.append("\n".join([" ".join(["%d"] * d)] * k) % tuple(islice(values, k * d)))
    return "\n".join(out) + "\n"


# Draws that gen_regular_ldpc makes before it gives up.
_GEN_ATTEMPTS = 1000


def gen_regular_ldpc(n: int, var_deg: int, check_deg: int, seed: int) -> ParityCheckMatrix:
    """Sample a (var_deg, check_deg)-regular code via the configuration model.

    Variable sockets are permuted and dealt to checks; draws with parallel
    edges are rejected and resampled, up to ``_GEN_ATTEMPTS`` times.  Short
    cycles other than parallel edges are kept.  Deterministic per seed.  A
    check degree above ``n`` forces a parallel edge, so it is a
    ``ValueError`` like the other size rules, raised before any draw.
    """
    for name, value, least in (("n", n, 1), ("var_deg", var_deg, 1), ("check_deg", check_deg, 1),
                               ("seed", seed, 0)):
        check_integer(name, value, least)
    if (n * var_deg) % check_deg != 0:
        raise ValueError("n * var_deg must be divisible by check_deg")
    if check_deg > n:  # equivalently, var_deg > m
        raise ValueError(f"check_deg must be at most n, got {check_deg} > {n}")
    m = (n * var_deg) // check_deg
    rng = np.random.default_rng(seed)
    sockets = np.repeat(np.arange(n), var_deg)
    for _ in range(_GEN_ATTEMPTS):
        dealt = rng.permutation(sockets).reshape(m, check_deg)
        dealt.sort(axis=1)
        if (dealt[:, 1:] != dealt[:, :-1]).all():
            return ParityCheckMatrix._from_csr(n, dealt.ravel(), np.full(m, check_deg))
    raise CodeGenerationError(
        f"no parallel-edge-free ({var_deg},{check_deg}) code of length {n} "
        f"found in {_GEN_ATTEMPTS} attempts"
    )
