"""Exact integer matrix arithmetic: sparse echelon elimination, Smith normal form.

All entries are Python ints, so intermediate values never overflow.  Matrices
are immutable; every operation returns a fresh matrix.  Entries are checked
once, at the boundary (the public constructors); operations build through
`IntMatrix._wrap` without re-checking.  Kernels, column spans, rank, linear
solving and the Smith normal form share one sparse column-echelon reduction:
a solver reads each right-hand side off its pivot columns by forward
substitution and its kernel off the columns it zeroes, and `snf` alternates
the reduction on a matrix and on its transpose.  Determinism matters for
canonical forms, so pivot choices follow a fixed rule: the minimal absolute
value wins, the smallest index breaking ties.

`work_cap(cells)` is the one work meter: it bounds the matrix work of whatever
runs inside it, and outside one it costs a single `is None` test per site.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain, compress
from operator import index
from typing import Iterable, Optional, Sequence


class DimensionMismatch(ValueError):
    """Raised when matrix shapes do not line up.  Distinct from 'no solution'."""


class WorkCapped(ValueError):
    """Raised when the matrix work inside a work_cap block passes its cap."""


# [cells spent, cap] of the innermost work_cap block (one per process), or None
_meter: Optional[list] = None
# Cells charged per entry an elimination step rewrites and per pivot a
# solve passes: on a 2-core VM with Python 3.11 either costs 2 to 7 times
# a cell of a dense build.
_STEP_CELLS = 4


@contextmanager
def work_cap(cells: int):
    """Meter the matrix work inside the block: WorkCapped ("capped") once
    the running total passes `cells`.

    `_column_reduce` charges rows x cols of its input and _STEP_CELLS per
    entry each elimination step rewrites, `ModSolver.solve_matrix` (as each
    column ends) and `fpab.FpAbGroup._peel` _STEP_CELLS per pivot a column
    passes and per entry the peel combines, `ModSolver.kernel` rows x cols
    of its dense result, and `IntMatrix.zero`, `identity`, `__mul__`,
    `block_diag`, `snf`, `fpab.unit_block_matrix`, `fpab.minimized` (both
    maps) and `poset_sheaf.FreePresheaf` (its restrictions, on first read)
    rows x cols of each dense matrix they size from a shape, before it.
    The enclosing meter, or none, is back in force however the block exits.
    """
    global _meter
    outer, _meter = _meter, [0, cells]
    try:
        yield
    finally:
        _meter = outer


def _charge(cells: int) -> None:
    """Add cells to the running meter; callers test `_meter is not None`."""
    _meter[0] += cells
    if _meter[0] > _meter[1]:
        raise WorkCapped(f"matrix work is capped at {_meter[1]} cells; "
                         f"this request needs at least {_meter[0]}")


class IntMatrix:
    """Immutable dense matrix over the integers.

    Stored row-major as a tuple of row tuples of ints; either dimension may
    be zero, with the usual conventions for products and stacking.  The
    constructor, `from_rows`, `from_cols`, `column` and `diagonal` validate
    input (ragged grid: DimensionMismatch; non-integral entry: TypeError);
    every other operation builds through `_wrap` without re-checking.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimension")
        data = tuple(tuple(map(index, row)) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"entry grid does not match declared shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _wrap(cls, rows: int, cols: int, data: tuple) -> "IntMatrix":
        # trusted: data is already a tuple of int tuples of the declared shape
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        if len(entries) == 0:
            return cls(0, cols or 0, ())
        return cls(len(entries), len(entries[0]), entries)

    @classmethod
    def from_cols(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if len(columns) == 0:
            return cls(rows if rows is not None else 0, 0, ((),) * (rows or 0))
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise DimensionMismatch("ragged column list")
        return cls(height, len(columns), (tuple(c[i] for c in columns) for i in range(height)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimension")
        if _meter is not None:
            _charge(rows * cols)
        return cls._wrap(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise DimensionMismatch("negative dimension")
        if _meter is not None:
            _charge(n * n)
        return cls._wrap(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        k = len(values)
        r = rows if rows is not None else k
        c = cols if cols is not None else k
        return cls(r, c, (tuple(values[i] if (i == j and i < k) else 0 for j in range(c)) for i in range(r)))

    @classmethod
    def column(cls, values: Sequence[int]) -> "IntMatrix":
        return cls(len(values), 1, ((v,) for v in values))

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def column_matrix(self, j: int) -> "IntMatrix":
        return IntMatrix._wrap(self.rows, 1, tuple((r[j],) for r in self.data))

    def transpose(self) -> "IntMatrix":
        # zip(*()) is empty: a 0xN matrix spells out its N empty rows
        return IntMatrix._wrap(self.cols, self.rows, tuple(zip(*self.data)) or ((),) * self.cols)

    def take_cols(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._wrap(self.rows, len(indices),
                               tuple(tuple(r[j] for j in indices) for r in self.data))

    def take_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._wrap(len(indices), self.cols, tuple(self.data[i] for i in indices))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ocols = other.cols
        if _meter is not None:
            _charge(self.rows * ocols)
        out = []
        for arow in self.data:
            acc = [0] * ocols
            for k, a in enumerate(arow):
                if a:
                    brow = other.data[k]
                    for j in range(ocols):
                        b = brow[j]
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix._wrap(self.rows, ocols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("addition shape mismatch")
        return IntMatrix._wrap(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("subtraction shape mismatch")
        return IntMatrix._wrap(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.data))

    def scale(self, k: int) -> "IntMatrix":
        k = index(k)
        return IntMatrix._wrap(self.rows, self.cols, tuple(tuple(k * a for a in r) for r in self.data))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}, {self.cols}, {list(map(list, self.data))})"


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise DimensionMismatch("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack row mismatch")
    return IntMatrix._wrap(rows, sum(m.cols for m in mats), tuple(
        tuple(chain.from_iterable(parts)) for parts in zip(*(m.data for m in mats))))


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise DimensionMismatch("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack column mismatch")
    return IntMatrix._wrap(sum(m.rows for m in mats), cols,
                           tuple(chain.from_iterable(m.data for m in mats)))


def block_diag(*mats: IntMatrix) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    if _meter is not None:
        _charge(rows * cols)
    out = []
    c0 = 0
    for m in mats:
        left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
        out.extend(left + r + right for r in m.data)
        c0 += m.cols
    return IntMatrix._wrap(rows, cols, tuple(out))


class _ReducedCol:
    """One column of a column-echelon reduction, stored sparsely by row;
    row is its pivot row, None while it is not a pivot column."""

    __slots__ = ("d", "w", "pos", "row")


def _column_reduce(a: IntMatrix, track_rows: int):
    """Column-echelon reduction using column operations only.

    Returns (order, npivots): the columns after reduction, in position
    order.  Each carries its data entries (.d, keyed by row) and the
    transform restricted to the first track_rows coordinates (.w, keyed by
    original column index).  The first npivots columns form the echelon
    basis; the rest are identically zero, and their transforms record how
    they arose from the original first track_rows columns.  Column
    operations never change the kernel or the column span, which is the
    point.

    Columns live in dicts and a row index points each elimination step at
    the columns with support there, so cost follows the nonzero count
    rather than the shape; resolution differentials at scale are far too
    sparse for dense sweeps.
    """
    m, n = a.rows, a.cols
    if _meter is not None:
        _charge(m * n)
    order = []
    for j in range(n):
        col = _ReducedCol()
        col.d = {}
        col.w = {j: 1} if j < track_rows else {}
        col.pos = j
        col.row = None
        order.append(col)
    rowindex = {}
    cols = range(n)
    for i, row in enumerate(a.data):
        for j in compress(cols, row):  # the nonzero entries, found in C
            order[j].d[i] = row[j]
            rowindex.setdefault(i, set()).add(order[j])
    front = 0
    for r in range(m):
        if front == n:
            break
        bucket = rowindex.pop(r, None)
        if not bucket:
            continue
        live = [col for col in bucket if col.row is None and col.d.get(r)]
        while len(live) > 1:
            live.sort(key=lambda col: (abs(col.d[r]), len(col.d), col.pos))
            pcol = live[0]
            pv, pd, pw = pcol.d[r], pcol.d, pcol.w
            if _meter is not None:
                _charge(_STEP_CELLS * (len(live) - 1) * (len(pd) + len(pw)))
            for col in live[1:]:
                # |pv| is least, so q is nonzero
                q, d = col.d[r] // pv, col.d
                for i, x in pd.items():
                    y = d.get(i, 0) - q * x
                    if y:
                        if i > r and i not in d:
                            rowindex.setdefault(i, set()).add(col)
                        d[i] = y
                    elif i in d:
                        del d[i]
                if pw:
                    w = col.w
                    for i, x in pw.items():
                        y = w.get(i, 0) - q * x
                        if y:
                            w[i] = y
                        elif i in w:
                            del w[i]
            live = [col for col in live if col.d.get(r)]
        if not live:
            continue
        pcol = live[0]
        if pcol.d[r] < 0:
            pcol.d = {i: -x for i, x in pcol.d.items()}
            pcol.w = {i: -x for i, x in pcol.w.items()}
        front_col = order[front]
        if front_col is not pcol:
            order[front], order[pcol.pos] = pcol, front_col
            front_col.pos, pcol.pos = pcol.pos, front
        pcol.row = r
        front += 1
    return order, front


def _from_sparse_cols(cols: Sequence[dict], height: int) -> IntMatrix:
    grid = [[0] * len(cols) for _ in range(height)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            grid[i][j] = x
    return IntMatrix._wrap(height, len(cols), tuple(map(tuple, grid)))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis for the lattice {x : A x = 0}, as columns.

    The result always has cols(A) - rank(A) columns and is saturated: the
    kernel of an integer matrix is a direct summand of the ambient lattice.
    """
    return SnfSolver(a).kernel()


def constrained_kernel(a: IntMatrix, rel: IntMatrix) -> IntMatrix:
    """Generating columns for the lattice {x : A x lies in colspan(rel)}:
    ModSolver(a, rel).kernel(), for a caller that solves nothing."""
    return ModSolver(a, rel).kernel()


def column_space_basis(a: IntMatrix) -> IntMatrix:
    """Basis for the column span of A, as the nonzero columns of a column echelon form."""
    order, npiv = _column_reduce(a, track_rows=0)
    return _from_sparse_cols([col.d for col in order[:npiv]], a.rows)


def rank(a: IntMatrix) -> int:
    _, npiv = _column_reduce(a, track_rows=0)
    return npiv


class ModSolver:
    """Reusable solver for A x = b modulo the column span of Rel.

    One column-echelon reduction of [A | Rel] serves every b and the
    kernel.  Its pivot columns are ordered by pivot row and vanish above
    it, so forward substitution writes b = sum q_k c_k: exact division at
    each pivot row (None on a remainder), then None if a residual is left
    on the other rows.  x = sum q_k w_k, with w_k the tracked A-part of
    the transform of pivot column c_k.  Only the A-part is tracked, which
    keeps the cost proportional to cols(A) rather than cols(A) + cols(Rel).
    """

    def __init__(self, a: IntMatrix, rel: IntMatrix):
        if rel.rows != a.rows:
            raise DimensionMismatch("relation matrix height mismatch")
        self.rows, self.cols = a.rows, a.cols
        self._order, self._npiv = _column_reduce(
            hstack(a, rel) if rel.cols else a, track_rows=a.cols)
        self._pivots = None  # pivot entries split off at the first read

    @classmethod
    def of_basis(cls, rows: int, basis: Sequence[tuple]) -> "ModSolver":
        """The solver for K x = b, K the columns of an echelon basis given as
        (pivot row, pivot, column by row), pivot rows increasing, as fpab
        keeps one.  K is its own reduction, so none is run; x is unique."""
        solver = object.__new__(cls)
        solver.rows, solver.cols, solver._order, solver._npiv = rows, len(basis), [], 0
        solver._pivots = [(r, p, {i: x for i, x in col.items() if i != r}, {k: 1})
                          for k, (r, p, col) in enumerate(basis)]
        return solver

    def kernel(self) -> IntMatrix:
        """Generating columns for the lattice {x : A x lies in colspan(Rel)}:
        the A-parts of the columns the reduction zeroed, so the projection
        of ker[A | Rel].  With Rel empty they are a basis of ker A, which
        is saturated: a direct summand of the ambient lattice."""
        zeroed = self._order[self._npiv:]
        if _meter is not None:
            _charge(self.cols * len(zeroed))
        return _from_sparse_cols([col.w for col in zeroed], self.cols)

    def pivots(self) -> list:
        """(row, pivot, entries below, A-part of the transform) per pivot
        column, rows increasing; rows and pivots depend on the span alone."""
        if self._pivots is None:
            self._pivots = [(col.row, col.d.pop(col.row), col.d, col.w)
                            for col in self._order[:self._npiv]]
        return self._pivots

    def solve(self, b: IntMatrix) -> Optional[IntMatrix]:
        if b.rows != self.rows or b.cols != 1:
            raise DimensionMismatch(
                f"right-hand side is {b.rows}x{b.cols}, expected {self.rows}x1")
        return self.solve_matrix(b)

    def solve_matrix(self, b: IntMatrix) -> Optional[IntMatrix]:
        """Solve for every column of b; None if any single column fails."""
        if b.rows != self.rows:
            raise DimensionMismatch(
                f"right-hand side has {b.rows} rows, expected {self.rows}")
        pivots = self.pivots()
        xs = []
        for bcol in zip(*b.data) if b.rows else ((),) * b.cols:
            resid = {i: v for i, v in enumerate(bcol) if v}
            x = [0] * self.cols
            passed = 0
            for r, p, below, w in pivots:
                if not resid:
                    break
                passed += 1
                q, rem = divmod(resid.pop(r), p) if r in resid else (0, 0)
                if rem:  # left as the residual, so the column fails
                    resid[r] = rem
                    break
                if q:
                    for i, v in below.items():
                        if t := resid.pop(i, 0) - q * v:
                            resid[i] = t
                    for i, v in w.items():
                        x[i] += q * v
            if _meter is not None:
                _charge(_STEP_CELLS * passed)
            if resid:
                return None
            xs.append(x)
        data = tuple(zip(*xs)) if xs else ((),) * self.cols
        return IntMatrix._wrap(self.cols, b.cols, data)


class SnfSolver(ModSolver):
    """Reusable solver for A x = b over Z: ModSolver with Rel empty; no Smith form."""

    def __init__(self, a: IntMatrix):
        super().__init__(a, IntMatrix.zero(a.rows, 0))

    # bound here too: perfbench/tracing.py wraps each class's own methods
    solve = ModSolver.solve
    solve_matrix = ModSolver.solve_matrix


def solve(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """One integer solution x of A x = b, or None when none exists.

    Shape errors raise DimensionMismatch; unsolvability returns None.
    """
    return SnfSolver(a).solve(b)


def solve_mod(a: IntMatrix, b: IntMatrix, rel: IntMatrix) -> Optional[IntMatrix]:
    """One x with A x - b in the column span of Rel, or None."""
    return ModSolver(a, rel).solve(b)


class SmithDecomposition:
    """Result of snf: unimodular U, V and diagonal D with U*A*V = D.

    D is nonnegative with each diagonal entry dividing the next; trailing
    ones and zeros are kept so D always has the source's shape.  u_inv is
    the exact integer inverse of U: given when snf can write it down, and
    otherwise solved for on first use.
    """

    __slots__ = ("U", "D", "V", "_u_inv")

    def __init__(self, U, D, V, u_inv=None):
        self.U = U
        self.D = D
        self.V = V
        self._u_inv = u_inv

    @property
    def u_inv(self) -> IntMatrix:
        if self._u_inv is None:
            self._u_inv = SnfSolver(self.U).solve_matrix(IntMatrix.identity(self.U.rows))
        return self._u_inv

    def diagonal(self) -> list:
        return [self.D.data[i][i] for i in range(min(self.D.rows, self.D.cols))]


def _combine(coeffs: dict, vectors: Sequence[dict]) -> dict:
    """The sparse vector sum of coeffs[k] * vectors[k]."""
    out = {}
    for k, c in coeffs.items():
        for i, x in vectors[k].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, s1, r0, r1 = 1, 0, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return r0, s0, (r0 - s0 * a) // b


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by alternating column-echelon passes (Kannan and
    Bachem, SIAM J. Comput. 8, 1979).

    _column_reduce runs on A, tracking V; then on the transpose of the r
    nonzero columns it leaves, tracking U^T; and from there on alternately
    on the r x r nonzero block and on its transpose, until every pivot
    column holds one entry.  This ends: each pass makes the leading entry
    of the part not yet split off the gcd of its first row or column, so
    it shrinks until it divides both, and the next pass leaves it alone in
    its row and column for good.  Only the first pass can leave the single
    entries off the diagonal, so a row permutation puts them there, and a
    gcd pass of 2x2 unimodular steps makes each divide the next.
    """
    m, n = a.rows, a.cols
    if _meter is not None:
        _charge(m * m + m * n + n * n)
    order, r = _column_reduce(a, track_rows=n)
    pivots = order[:r]
    v = [col.w for col in order]  # columns of V
    u = None                      # rows of U, once a transposed pass has run
    width, on_transpose = m, True
    while any(len(col.d) > 1 for col in pivots):
        block = IntMatrix._wrap(r, width, tuple(
            tuple(col.d.get(i, 0) for i in range(width)) for col in pivots))
        order, _ = _column_reduce(block, track_rows=width)
        pivots = order[:r]
        if not on_transpose:
            v[:r] = [_combine(col.w, v) for col in pivots]
        elif u is None:
            u = [col.w for col in order]
        else:
            u[:r] = [_combine(col.w, u) for col in pivots]
        width, on_transpose = r, not on_transpose
    ui = None  # columns of u_inv, written down when U is a row permutation
    if u is None:
        rows = [col.row for col in pivots]
        rest = set(range(m)).difference(rows)
        u = [{i: 1} for i in rows + sorted(rest)]
        ui = list(u)
    d = [col.d[col.row] for col in pivots]
    for i in range(r):
        for j in range(i + 1, r):
            x, y = d[i], d[j]
            if y % x:
                g, s, t = _xgcd(x, y)
                u[i], u[j] = _combine({i: s, j: t}, u), _combine({i: -y // g, j: x // g}, u)
                v[i], v[j] = (_combine({i: 1, j: 1}, v),
                              _combine({i: -t * y // g, j: s * x // g}, v))
                if ui is not None:
                    ui[i], ui[j] = (_combine({i: x // g, j: y // g}, ui),
                                    _combine({i: -t, j: s}, ui))
                d[i], d[j] = g, x * y // g
    return SmithDecomposition(
        IntMatrix._wrap(m, m, tuple(tuple(row.get(k, 0) for k in range(m)) for row in u)),
        IntMatrix._wrap(m, n, tuple(tuple(d[i] if i == j and i < r else 0 for j in range(n))
                                    for i in range(m))),
        _from_sparse_cols(v, n), None if ui is None else _from_sparse_cols(ui, m))
