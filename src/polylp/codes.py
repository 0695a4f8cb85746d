"""Binary linear codes as sparse parity-check matrices.

Provides the Tanner-graph view used by the decoders (per-check and
per-variable neighborhoods), the alist text format, and a configuration
model sampler for random regular LDPC ensembles.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray


class AlistParseError(ValueError):
    """Malformed alist text; the message names the offending line."""


class CodeGenerationError(RuntimeError):
    """Random ensemble sampling failed within the retry budget."""


class ParityCheckMatrix:
    """Sparse M x N parity-check matrix with neighborhood queries.

    Checks and variables are 0-based internally.  ``check_neighborhoods[j]``
    is the sorted array of variable indices in check ``j``; selecting those
    entries of a length-N vector realizes the check's gather operator, and
    the per-variable neighborhoods realize its transpose.  Instances are
    immutable after construction and safe to share across workers.
    """

    def __init__(self, n_vars: int, check_neighborhoods: list[ArrayLike]):
        if n_vars <= 0:
            raise ValueError("n_vars must be positive")
        if not check_neighborhoods:
            raise ValueError("need at least one check")
        checks: list[NDArray[np.int64]] = []
        for j, nbhd in enumerate(check_neighborhoods):
            arr = np.asarray(nbhd, dtype=np.int64)
            arr = np.sort(arr)
            if arr.size == 0:
                raise ValueError(f"check {j} has no variables")
            if arr[0] < 0 or arr[-1] >= n_vars:
                raise ValueError(f"check {j} has a variable index out of range")
            if np.any(np.diff(arr) == 0):
                raise ValueError(f"check {j} has a parallel edge")
            arr.flags.writeable = False
            checks.append(arr)
        self.n_vars = n_vars
        self.n_checks = len(checks)
        self.check_neighborhoods: tuple[NDArray[np.int64], ...] = tuple(checks)

        var_lists: list[list[int]] = [[] for _ in range(n_vars)]
        for j, arr in enumerate(self.check_neighborhoods):
            for i in arr:
                var_lists[int(i)].append(j)
        vars_: list[NDArray[np.int64]] = []
        for lst in var_lists:
            a = np.asarray(lst, dtype=np.int64)
            a.flags.writeable = False
            vars_.append(a)
        self.var_neighborhoods: tuple[NDArray[np.int64], ...] = tuple(vars_)

    @classmethod
    def from_dense(cls, h: ArrayLike) -> "ParityCheckMatrix":
        h = np.asarray(h)
        if h.ndim != 2:
            raise ValueError("dense parity-check matrix must be 2-D")
        return cls(h.shape[1], [np.flatnonzero(row) for row in h])

    def to_dense(self) -> NDArray[np.uint8]:
        h = np.zeros((self.n_checks, self.n_vars), dtype=np.uint8)
        for j, nbhd in enumerate(self.check_neighborhoods):
            h[j, nbhd] = 1
        return h

    @cached_property
    def check_degrees(self) -> NDArray[np.int64]:
        return np.array([a.size for a in self.check_neighborhoods], dtype=np.int64)

    @cached_property
    def var_degrees(self) -> NDArray[np.int64]:
        return np.array([a.size for a in self.var_neighborhoods], dtype=np.int64)

    @cached_property
    def var_divisor(self) -> NDArray[np.float64]:
        """Variable degrees as floats, with 1 in place of 0."""
        div = np.maximum(self.var_degrees, 1).astype(float)
        div.flags.writeable = False
        return div

    @cached_property
    def isolated_vars(self) -> NDArray[np.int64]:
        """Indices of the variables that are in no check."""
        idx = np.flatnonzero(self.var_degrees == 0)
        idx.flags.writeable = False
        return idx

    @property
    def n_edges(self) -> int:
        return int(self.check_degrees.sum())

    @cached_property
    def edge_var(self) -> NDArray[np.int64]:
        """Variable index of each edge, edges grouped by check."""
        return np.concatenate(self.check_neighborhoods)

    @cached_property
    def check_ptr(self) -> NDArray[np.int64]:
        """CSR-style offsets: edges of check j are check_ptr[j]:check_ptr[j+1]."""
        return np.concatenate([[0], np.cumsum(self.check_degrees)])

    def check_slice(self, j: int) -> slice:
        return slice(int(self.check_ptr[j]), int(self.check_ptr[j + 1]))

    @cached_property
    def checks_by_degree(self) -> dict[int, NDArray[np.int64]]:
        """Edge-index matrix of shape (m_d, d) for each distinct degree d."""
        groups: dict[int, NDArray[np.int64]] = {}
        degs = self.check_degrees
        ptr = self.check_ptr
        for d in np.unique(degs):
            js = np.flatnonzero(degs == d)
            rows = ptr[js][:, None] + np.arange(int(d))[None, :]
            rows.flags.writeable = False
            groups[int(d)] = rows
        return groups

    @cached_property
    def degree_blocks(self) -> dict[int, slice | NDArray[np.int64]]:
        """Edge selector of each degree group: ``v[sel].reshape(-1, d)``
        gives the group's (m_d, d) rows of an edge-flat vector ``v``.

        A group whose edges are contiguous (every group of a code whose
        checks of one degree are adjacent, e.g. a regular code) gets a
        ``slice``, so reading and writing it moves no indices; any other
        group gets its flat edge indices.
        """
        blocks: dict[int, slice | NDArray[np.int64]] = {}
        for d, rows in self.checks_by_degree.items():
            flat = rows.reshape(-1)
            start = int(flat[0])
            if int(flat[-1]) - start + 1 == flat.size:
                blocks[d] = slice(start, start + flat.size)
            else:
                blocks[d] = flat
        return blocks

    def map_checks(
        self,
        fn: Callable[[NDArray[np.float64]], NDArray],
        v: NDArray[np.float64],
    ) -> NDArray[np.float64]:
        """Apply a row function to each degree group of an edge-flat ``v``.

        ``fn`` maps a group's (m_d, d) rows, one check per row, to a new
        array of that shape and must not write to its input; the result
        is edge-flat with ``v``'s dtype.  A code with one check degree
        hands ``fn`` all of ``v`` as an (m, d) view and returns its rows
        without a scatter.
        """
        if v.shape != self.edge_var.shape:
            raise ValueError(f"expected an edge-flat vector of length {self.edge_var.size}")
        blocks = self.degree_blocks
        if len(blocks) == 1:
            (d,) = blocks
            return fn(v.reshape(-1, d)).reshape(-1).astype(v.dtype, copy=False)
        out = np.empty_like(v)
        for d, sel in blocks.items():
            out[sel] = fn(v[sel].reshape(-1, d)).reshape(-1)
        return out

    @cached_property
    def check_columns(self) -> tuple[NDArray[np.int64], ...]:
        """Variable indices of each degree group as a C-ordered (d, m_d)
        array: column j lists the variables of the group's j-th check."""
        cols = []
        for rows in self.checks_by_degree.values():
            c = self.edge_var[rows].T.copy()
            c.flags.writeable = False
            cols.append(c)
        return tuple(cols)

    @property
    def design_rate(self) -> float:
        return 1.0 - self.n_checks / self.n_vars

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParityCheckMatrix):
            return NotImplemented
        return self.n_vars == other.n_vars and len(self.check_neighborhoods) == len(
            other.check_neighborhoods
        ) and all(
            np.array_equal(a, b)
            for a, b in zip(self.check_neighborhoods, other.check_neighborhoods)
        )

    def __repr__(self) -> str:
        return f"ParityCheckMatrix(n_vars={self.n_vars}, n_checks={self.n_checks})"

    # Plain-data pickling keeps instances cheap to ship to worker processes.
    def __getstate__(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "checks": [np.asarray(a) for a in self.check_neighborhoods],
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["n_vars"], state["checks"])


def is_codeword(code: ParityCheckMatrix, x: ArrayLike) -> bool:
    """True iff every check neighborhood of ``x`` sums to even parity."""
    x = np.asarray(x)
    if x.shape != (code.n_vars,):
        raise ValueError(f"expected a length-{code.n_vars} vector")
    if not ((x == 0) | (x == 1)).all():
        raise ValueError("codeword entries must be 0 or 1")
    bits = x.astype(np.uint8)
    # Parity of each check is the XOR down its column: d vector ops.
    return not any(
        np.bitwise_xor.reduce(bits[cols], axis=0).any() for cols in code.check_columns
    )


def check_llrs(code: ParityCheckMatrix, gamma: ArrayLike) -> NDArray[np.float64]:
    """Validate a decoder's LLR input: a finite length-N vector, as floats."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (code.n_vars,):
        raise ValueError(f"expected a length-{code.n_vars} LLR vector")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("LLR vector must be finite")
    return gamma


def _tokens_of_line(lines: list[str], idx: int, label: str) -> list[int]:
    if idx >= len(lines):
        raise AlistParseError(f"line {idx + 1}: missing {label}")
    try:
        return [int(t) for t in lines[idx].split()]
    except ValueError as exc:
        raise AlistParseError(f"line {idx + 1}: non-integer token in {label}") from exc


def parse_alist(text: str) -> ParityCheckMatrix:
    """Parse alist text into a :class:`ParityCheckMatrix`.

    Layout: ``N M``, then the maximum column/row degrees, then N column
    degrees, M row degrees, N per-column lines of 1-based check indices,
    and M per-row lines of 1-based variable indices.  Zero padding is
    ignored.  Raises :class:`AlistParseError` naming the offending line.
    """
    lines = [ln for ln in text.splitlines()]
    # Drop trailing blank lines but keep interior numbering intact.
    while lines and not lines[-1].strip():
        lines.pop()

    header = _tokens_of_line(lines, 0, "size header")
    if len(header) != 2:
        raise AlistParseError("line 1: expected 'N M'")
    n, m = header
    if n <= 0 or m <= 0:
        raise AlistParseError("line 1: dimensions must be positive")

    max_degs = _tokens_of_line(lines, 1, "maximum degrees")
    if len(max_degs) != 2:
        raise AlistParseError("line 2: expected maximum column and row degree")
    max_col, max_row = max_degs

    col_degs = _tokens_of_line(lines, 2, "column degrees")
    if len(col_degs) != n:
        raise AlistParseError(f"line 3: expected {n} column degrees, got {len(col_degs)}")
    row_degs = _tokens_of_line(lines, 3, "row degrees")
    if len(row_degs) != m:
        raise AlistParseError(f"line 4: expected {m} row degrees, got {len(row_degs)}")
    if any(d < 0 or d > max_col for d in col_degs):
        raise AlistParseError("line 3: column degree exceeds declared maximum")
    if any(d < 1 or d > max_row for d in row_degs):
        raise AlistParseError("line 4: row degree out of range")

    expected = 4 + n + m
    if len(lines) != expected:
        raise AlistParseError(
            f"line {min(len(lines), expected) + 1}: expected {expected} lines, got {len(lines)}"
        )

    cols: list[list[int]] = []
    for k in range(n):
        ln = 4 + k
        entries = [e for e in _tokens_of_line(lines, ln, "column entries") if e != 0]
        if len(entries) != col_degs[k]:
            raise AlistParseError(
                f"line {ln + 1}: column {k + 1} lists {len(entries)} checks, "
                f"degree says {col_degs[k]}"
            )
        if any(e < 1 or e > m for e in entries):
            raise AlistParseError(f"line {ln + 1}: check index out of range")
        cols.append(sorted(e - 1 for e in entries))

    rows: list[list[int]] = []
    for k in range(m):
        ln = 4 + n + k
        entries = [e for e in _tokens_of_line(lines, ln, "row entries") if e != 0]
        if len(entries) != row_degs[k]:
            raise AlistParseError(
                f"line {ln + 1}: row {k + 1} lists {len(entries)} variables, "
                f"degree says {row_degs[k]}"
            )
        if any(e < 1 or e > n for e in entries):
            raise AlistParseError(f"line {ln + 1}: variable index out of range")
        rows.append(sorted(e - 1 for e in entries))

    # The two sections must describe the same matrix.
    from_cols: list[set[int]] = [set() for _ in range(m)]
    for i, checks in enumerate(cols):
        for j in checks:
            from_cols[j].add(i)
    for j in range(m):
        listed = set(rows[j])
        if from_cols[j] != listed:
            raise AlistParseError(
                f"line {4 + n + j + 1}: row {j + 1} disagrees with the column section"
            )
        if len(listed) != len(rows[j]):
            raise AlistParseError(f"line {4 + n + j + 1}: row {j + 1} lists a variable twice")
    # The rows name each edge once, so the columns do too exactly when
    # their entry count is the rows' entry count.
    if sum(col_degs) != sum(row_degs):
        k = next(k for k, checks in enumerate(cols) if len(set(checks)) != len(checks))
        raise AlistParseError(f"line {4 + k + 1}: column {k + 1} lists a check twice")

    return ParityCheckMatrix(n, [np.asarray(rw, dtype=np.int64) for rw in rows])


def emit_alist(code: ParityCheckMatrix) -> str:
    """Serialize to canonical alist text: unpadded, single-spaced, 1-based."""
    cols = [nb + 1 for nb in code.var_neighborhoods]
    rows = [nb + 1 for nb in code.check_neighborhoods]
    out = [
        f"{code.n_vars} {code.n_checks}",
        f"{int(code.var_degrees.max())} {int(code.check_degrees.max())}",
        " ".join(str(int(d)) for d in code.var_degrees),
        " ".join(str(int(d)) for d in code.check_degrees),
    ]
    out += [" ".join(str(int(v)) for v in c) for c in cols]
    out += [" ".join(str(int(v)) for v in r) for r in rows]
    return "\n".join(out) + "\n"


def gen_regular_ldpc(
    n: int, var_deg: int, check_deg: int, seed: int, max_attempts: int = 1000
) -> ParityCheckMatrix:
    """Sample a (var_deg, check_deg)-regular code via the configuration model.

    Variable sockets are permuted and dealt to checks; draws with parallel
    edges are rejected and resampled, up to ``max_attempts`` times.  Short
    cycles other than parallel edges are kept.  Deterministic per seed.
    """
    if n <= 0 or var_deg <= 0 or check_deg <= 0:
        raise ValueError("code parameters must be positive")
    if (n * var_deg) % check_deg != 0:
        raise ValueError("n * var_deg must be divisible by check_deg")
    m = (n * var_deg) // check_deg
    rng = np.random.default_rng(seed)
    sockets = np.repeat(np.arange(n), var_deg)
    for _ in range(max_attempts):
        dealt = rng.permutation(sockets).reshape(m, check_deg)
        dealt.sort(axis=1)
        if np.all(np.diff(dealt, axis=1) != 0):
            return ParityCheckMatrix(n, list(dealt))
    raise CodeGenerationError(
        f"no parallel-edge-free ({var_deg},{check_deg}) code of length {n} "
        f"found in {max_attempts} attempts"
    )
