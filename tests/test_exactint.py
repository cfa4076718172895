"""Tests for exact integer linear algebra.

The Smith form tests are checked against a brute-force minor-gcd oracle:
the k-th diagonal entry of the Smith form equals gcd(k-minors)/gcd((k-1)-minors).
The oracle uses its own recursive determinant so it shares no code with the
implementation under test.
"""

import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from extcalc import exactint, fpab, poset_sheaf
from extcalc.exactint import (
    DimensionMismatch,
    IntMatrix,
    ModSolver,
    SmithDecomposition,
    SnfSolver,
    WorkCapped,
    _column_reduce,
    _from_sparse_cols,
    block_diag,
    column_space_basis,
    constrained_kernel,
    hstack,
    kernel_basis,
    rank,
    snf,
    solve,
    solve_mod,
    vstack,
    work_cap,
)


# ---------------------------------------------------------------- oracles

def oracle_det(grid):
    n = len(grid)
    if n == 0:
        return 1
    if n == 1:
        return grid[0][0]
    total = 0
    for j in range(n):
        if grid[0][j]:
            minor = [row[:j] + row[j + 1:] for row in grid[1:]]
            total += (-1) ** j * grid[0][j] * oracle_det(minor)
    return total


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            rowi = m[i]
            rowk = m[k]
            for j in range(k + 1, n):
                rowi[j] = (pk * rowi[j] - mik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def oracle_minor_gcds(grid, rows, cols):
    """gcd of all k x k minors, for k = 1..min(rows, cols)."""
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[grid[i][j] for j in ci] for i in ri]
                g = math.gcd(g, oracle_det(sub))
        out.append(g)
    return out


def oracle_invariant_factors(a):
    """Expected SNF diagonal from the minor-gcd ratios."""
    gs = oracle_minor_gcds([list(r) for r in a.data], a.rows, a.cols)
    diag = []
    prev = 1
    for g in gs:
        if g == 0:
            diag.append(0)
        else:
            diag.append(g // prev)
            prev = g
    return diag


def check_smith(a):
    dec = snf(a)
    assert dec.U * a * dec.V == dec.D
    assert dec.D.rows == a.rows and dec.D.cols == a.cols
    assert det(dec.U) in (1, -1)
    assert det(dec.V) in (1, -1)
    assert dec.U * dec.u_inv == IntMatrix.identity(a.rows)
    diag = dec.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert dec.D.data[i][j] == 0
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    return dec


# ---------------------------------------------------------------- snf

def test_snf_identity():
    dec = check_smith(IntMatrix.identity(3))
    assert dec.D == IntMatrix.identity(3)


def test_snf_diag_2_3():
    dec = check_smith(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert dec.diagonal() == [1, 6]
    assert oracle_invariant_factors(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]


def test_snf_2468():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = check_smith(a)
    assert dec.diagonal() == [2, 4]
    assert oracle_invariant_factors(a) == [2, 4]


def test_snf_zero_and_empty():
    check_smith(IntMatrix.zero(2, 3))
    assert snf(IntMatrix.zero(2, 3)).diagonal() == [0, 0]
    for shape in [(0, 0), (0, 3), (3, 0)]:
        dec = check_smith(IntMatrix.zero(*shape))
        assert dec.D.rows == shape[0] and dec.D.cols == shape[1]


def test_snf_deterministic():
    a = IntMatrix.from_rows([[4, -6, 2], [0, 3, 5], [7, 7, 7]])
    d1 = snf(a)
    d2 = snf(a)
    assert d1.U == d2.U and d1.D == d2.D and d1.V == d2.V


def test_snf_matches_minor_gcd_oracle_randomly():
    rng = random.Random(1001)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        dec = check_smith(a)
        assert dec.diagonal() == oracle_invariant_factors(a), a


def test_snf_entry_growth_is_exact():
    # Large entries must not lose precision anywhere.
    a = IntMatrix.from_rows([[10**30, 1], [1, 10**30]])
    dec = check_smith(a)
    assert dec.diagonal()[0] == 1
    assert dec.diagonal()[1] == 10**60 - 1


# ---------------------------------------------------------------- kernel

def test_kernel_of_identity_is_empty():
    k = kernel_basis(IntMatrix.identity(2))
    assert k.cols == 0 and k.rows == 2


def test_kernel_of_2_3():
    a = IntMatrix.from_rows([[2, 3]])
    k = kernel_basis(a)
    assert k.cols == 1
    col = k.col(0)
    assert col in ((3, -2), (-3, 2))
    assert (a * k).is_zero()


def test_kernel_of_zero_1x1():
    k = kernel_basis(IntMatrix.zero(1, 1))
    assert k.cols == 1 and k.col(0) == (1,)


def test_kernel_random_properties():
    rng = random.Random(1002)
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = IntMatrix(m, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        k = kernel_basis(a)
        assert (a * k).is_zero()
        assert k.cols == n - rank(a)
        # saturation: every small kernel vector already lies in the basis span
        for cand in itertools.product(range(-3, 4), repeat=n):
            if any(cand) and all(sum(a.data[i][j] * cand[j] for j in range(n)) == 0
                                 for i in range(m)):
                assert solve(k, IntMatrix.column(cand)) is not None


def test_column_space_basis_spans():
    rng = random.Random(1003)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(0, 4)
        a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        basis = column_space_basis(a)
        assert basis.cols == rank(a)
        # every original column is an integer combination of the basis
        for j in range(n):
            assert solve(basis, a.column_matrix(j)) is not None
        # and conversely
        for j in range(basis.cols):
            assert solve_mod(a, basis.column_matrix(j), IntMatrix.zero(m, 0)) is not None


# ---------------------------------------------------------------- solve

def test_solve_even():
    x = solve(IntMatrix.from_rows([[2]]), IntMatrix.column([4]))
    assert x == IntMatrix.column([2])


def test_solve_parity_fails():
    assert solve(IntMatrix.from_rows([[2]]), IntMatrix.column([3])) is None


def test_solve_bezout():
    a = IntMatrix.from_rows([[2, 3]])
    b = IntMatrix.column([1])
    x = a * solve(a, b)
    assert x == b


def test_solve_dimension_mismatch_is_an_error():
    with pytest.raises(DimensionMismatch):
        solve(IntMatrix.from_rows([[2]]), IntMatrix.column([1, 2]))


def test_solve_random_constructed_instances():
    rng = random.Random(1004)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = IntMatrix(m, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        x0 = IntMatrix.column([rng.randint(-4, 4) for _ in range(n)])
        b = a * x0
        x = solve(a, b)
        assert x is not None
        assert a * x == b


def test_solve_detects_unsolvable():
    # 2x = 1 has no integer solution; 0x = 1 has none either.
    assert solve(IntMatrix.from_rows([[2], [0]]), IntMatrix.column([1, 1])) is None
    assert solve(IntMatrix.zero(1, 2), IntMatrix.column([1])) is None


# ---------------------------------------------------------------- solve_mod

def test_solve_mod_trivial():
    x = solve_mod(IntMatrix.from_rows([[1]]), IntMatrix.column([1]),
                  IntMatrix.from_rows([[2]]))
    assert x is not None
    assert (x.data[0][0] - 1) % 2 == 0


def test_solve_mod_obstruction():
    assert solve_mod(IntMatrix.from_rows([[2]]), IntMatrix.column([1]),
                     IntMatrix.from_rows([[4]])) is None


def test_solve_mod_everything_mod_one():
    x = solve_mod(IntMatrix.from_rows([[2]]), IntMatrix.column([3]),
                  IntMatrix.from_rows([[1]]))
    assert x is not None
    assert (2 * x.data[0][0] - 3) % 1 == 0


def test_solve_mod_substitution_property():
    rng = random.Random(1005)
    for _ in range(80):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        p = rng.randint(0, 2)
        a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        rel = IntMatrix(m, p, [[rng.randint(-4, 4) for _ in range(p)] for _ in range(m)])
        b = IntMatrix.column([rng.randint(-6, 6) for _ in range(m)])
        x = solve_mod(a, b, rel)
        if x is not None:
            resid = a * x - b
            assert solve(rel, resid) is not None or resid.is_zero()


def oracle_rank_and_gcd(m):
    """(r, g): r is the largest size of a nonzero minor of M and g the gcd
    of its r x r minors (1 when r = 0)."""
    r, g = 0, 1
    for k, gk in enumerate(oracle_minor_gcds([list(row) for row in m.data],
                                             m.rows, m.cols), 1):
        if gk:
            r, g = k, gk
    return r, g


def in_span(m, b):
    """Determinantal-divisor criterion for b in the column span L of M,
    sharing no code with the echelon solvers or the Smith form: L and
    L + Zb have the same rank r exactly when M and [M | b] do, and then
    the index of L in L + Zb is the ratio of their gcds of r x r minors."""
    return oracle_rank_and_gcd(m) == oracle_rank_and_gcd(hstack(m, b))


@st.composite
def solve_mod_cases(draw):
    """Small A, Rel and right-hand sides, a mix of solvable and not: each
    column is A x0 + Rel y0 plus a sparse perturbation."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 3))
    p = draw(st.integers(0, 2))
    k = draw(st.integers(1, 3))

    def grid(rows, cols, values=st.integers(-4, 4)):
        return IntMatrix(rows, cols, draw(st.lists(
            st.lists(values, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    a, rel = grid(m, n), grid(m, p)
    noise = grid(m, k, st.sampled_from((0, 0, 0, 1, -1, 2)))
    b = a * grid(n, k) + rel * grid(p, k) + noise
    return a, rel, b


@settings(max_examples=300, deadline=None)
@given(case=solve_mod_cases())
def test_solve_mod_matches_smith_criterion(case):
    a, rel, bs = case
    for j in range(bs.cols):
        b = bs.column_matrix(j)
        x = solve_mod(a, b, rel)
        assert (x is None) == (not in_span(hstack(a, rel), b))
        if x is not None:
            assert (x.rows, x.cols) == (a.cols, 1)
            assert in_span(rel, a * x - b)
        x = solve(a, b)
        assert (x is None) == (not in_span(a, b))
        if x is not None:
            assert a * x == b


@settings(max_examples=150, deadline=None)
@given(case=solve_mod_cases())
def test_solve_matrix_fails_when_any_column_fails(case):
    a, rel, bs = case
    ok = [in_span(hstack(a, rel), bs.column_matrix(j))
          for j in range(bs.cols)]
    x = ModSolver(a, rel).solve_matrix(bs)
    assert (x is None) == (not all(ok))
    if x is not None:
        assert (x.rows, x.cols) == (a.cols, bs.cols)
        for j in range(bs.cols):
            assert in_span(rel, a * x.column_matrix(j)
                           - bs.column_matrix(j))


def oracle_constrained_kernel(a, rel):
    """The body constrained_kernel had before the solver kept its own
    kernel: one reduction of [A | Rel], its zeroed columns' A-parts."""
    order, npiv = _column_reduce(hstack(a, rel) if rel.cols else a,
                                 track_rows=a.cols)
    return _from_sparse_cols([col.w for col in order[npiv:]], a.cols)


@settings(max_examples=300, deadline=None)
@given(case=solve_mod_cases())
def test_solver_kernel_is_the_constrained_kernel(case):
    a, rel, bs = case
    solver = ModSolver(a, rel)
    assert solver.kernel() == oracle_constrained_kernel(a, rel)
    # solving reads the reduction without changing it
    solver.solve_matrix(bs)
    assert solver.kernel() == constrained_kernel(a, rel)
    empty = IntMatrix.zero(a.rows, 0)
    assert SnfSolver(a).kernel() == kernel_basis(a) \
        == oracle_constrained_kernel(a, empty)


# ---------------------------------------------------------------- plumbing

def test_matrix_shapes_and_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.identity(2)
    assert a * b == a
    assert a + (-a) == IntMatrix.zero(2, 2)
    assert a.transpose().transpose() == a
    assert hstack(a, b).cols == 4
    assert vstack(a, b).rows == 4
    assert block_diag(a, b).rows == 4 and block_diag(a, b).cols == 4
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        a * IntMatrix.zero(3, 1)


def test_det_matches_oracle():
    rng = random.Random(1007)
    for _ in range(80):
        n = rng.randint(0, 4)
        a = IntMatrix(n, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert det(a) == oracle_det([list(r) for r in a.data])


def test_constrained_kernel_brute_force():
    # generators of {x : A x in colspan(rel)}, checked against box enumeration
    rng = random.Random(1008)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        a = IntMatrix(m, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        rel = IntMatrix(m, k, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)])
        gens = constrained_kernel(a, rel)
        assert gens.rows == n
        # every generator satisfies the membership condition
        for j in range(gens.cols):
            image = a * gens.column_matrix(j)
            assert solve(rel, image) is not None or image.is_zero()
        # every small solution is an integer combination of the generators
        for x in itertools.product(range(-2, 3), repeat=n):
            xc = IntMatrix.column(list(x))
            img = a * xc
            if img.is_zero() or solve(rel, img) is not None:
                assert solve(gens, xc) is not None


def test_constrained_kernel_trivial_constraint():
    a = IntMatrix.from_rows([[2, 4]])
    # rel spans everything: constraint is vacuous
    full = constrained_kernel(a, IntMatrix.identity(1))
    assert rank(full) == 2
    # rel empty: reduces to the plain kernel
    none = constrained_kernel(a, IntMatrix.zero(1, 0))
    assert rank(none) == 1
    assert (a * none).is_zero()


# ---------------------------------------------------------------- the boundary

class _Seven:
    """An integer type that is not int: usable wherever an index is."""

    def __index__(self):
        return 7


def test_boundary_constructors_reject_non_integral_entries():
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[3.7]])
    with pytest.raises(TypeError):
        IntMatrix.diagonal([2.9, 3])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[3, 5]]).scale(0.5)
    with pytest.raises(TypeError):
        IntMatrix.column([1, 2.0])
    with pytest.raises(TypeError):
        IntMatrix.from_cols([[1], ["2"]])
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_cols([[1, 2], [3]])
    for build in (lambda: IntMatrix.zero(-1, 2), lambda: IntMatrix.identity(-1)):
        with pytest.raises(DimensionMismatch):
            build()
    m = IntMatrix.from_rows([[True, False], [_Seven(), -2]])
    assert m.data == ((1, 0), (7, -2))
    assert all(type(x) is int for row in m.data for x in row)
    assert IntMatrix.diagonal([_Seven(), True]) == IntMatrix.from_rows([[7, 0], [0, 1]])
    assert m.scale(_Seven()) == IntMatrix.from_rows([[7, 0], [49, -14]])


def assert_well_formed(m):
    """The invariant every trusted construction must keep."""
    assert type(m.data) is tuple and len(m.data) == m.rows
    for row in m.data:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(x) is int for x in row)
    assert m == IntMatrix(m.rows, m.cols, m.data)


@st.composite
def matrices(draw, rows=None, cols=None, max_side=5, values=st.integers(-6, 6)):
    """A validated matrix, 0 rows or 0 columns included."""
    rows = draw(st.integers(0, max_side)) if rows is None else rows
    cols = draw(st.integers(0, max_side)) if cols is None else cols
    return IntMatrix(rows, cols, draw(st.lists(
        st.lists(values, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))


@st.composite
def operand_sets(draw):
    a = draw(matrices(values=st.integers(-6, 6) | st.booleans()))
    return (a, draw(matrices(rows=a.cols)), draw(matrices(rows=a.rows, cols=a.cols)),
            draw(matrices(rows=a.rows, max_side=3)), draw(matrices(rows=a.cols, max_side=3)),
            draw(st.integers(-5, 5)),
            draw(st.lists(st.integers(0, max(a.rows - 1, 0)), max_size=6)),
            draw(st.lists(st.integers(0, max(a.cols - 1, 0)), max_size=6)))


@settings(max_examples=200, deadline=None)
@given(case=operand_sets())
def test_every_operation_keeps_the_matrix_invariant(case):
    a, b, c, rel, x, k, ri, ci = case
    dec = snf(a)
    results = [a, a * b, a + c, a - c, -a, a.scale(k), a.transpose(), c.transpose(),
               IntMatrix.zero(0, a.cols).transpose(), IntMatrix.zero(a.rows, 0).transpose(),
               hstack(a, c, rel), vstack(a, c), block_diag(a, b, rel),
               fpab.precompose(a, fpab.free_abelian(rel.cols)),
               fpab.precompose(b, fpab.free_abelian(x.cols)),
               IntMatrix.zero(a.rows, a.cols), IntMatrix.identity(a.cols),
               dec.U, dec.D, dec.V, dec.u_inv,
               kernel_basis(a), constrained_kernel(a, rel), column_space_basis(a),
               ModSolver(a, rel).solve_matrix(a * x)]
    if a.rows:
        results.append(a.take_rows(ri))
    if a.cols:
        results += [a.take_cols(ci), a.column_matrix(ci[0] if ci else 0)]
    for m in results:
        assert_well_formed(m)


@settings(max_examples=200, deadline=None)
@given(a=matrices(max_side=4))
def test_snf_invariant_products_are_minor_gcds(a):
    """d_1 ... d_k is the gcd of the k x k minors, and 0 past the rank."""
    diag = snf(a).diagonal()
    gcds = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(a.rows), k):
            for ci in itertools.combinations(range(a.cols), k):
                g = math.gcd(g, det(a.take_rows(ri).take_cols(ci)))
        gcds.append(g)
    r = sum(1 for g in gcds if g)  # the k x k minors vanish exactly past the rank
    product = 1
    for k, g in enumerate(gcds, 1):
        product *= diag[k - 1]
        assert product == g
        assert (product == 0) == (k > r)


# ------------------------------------------------------------ work meter

_A = IntMatrix.from_rows([[1, 2], [3, 4]])
_SOLVER = ModSolver(_A, IntMatrix.zero(2, 0))
_MOD_SOLVER = ModSolver(_A, _A)  # [A | A] zeroes two columns

# Every builder that sizes a dense matrix from a shape (snf: U, D and V),
# and the one elimination under kernels, solvers and the Smith form: each
# charges the meter before it starts, a solve as each column ends.
CHARGED = {
    "IntMatrix.zero": lambda: IntMatrix.zero(2, 2),
    "IntMatrix.identity": lambda: IntMatrix.identity(2),
    "IntMatrix.__mul__": lambda: _A * _A,
    "block_diag": lambda: block_diag(_A, _A),
    "fpab.precompose": lambda: fpab.precompose(_A, fpab.zmod(2)),
    # the peel rewrites Z/2's one relation column, then builds both maps
    "fpab.minimized": lambda: fpab.minimized(fpab.zmod(2)),
    "_column_reduce": lambda: _column_reduce(_A, 0),
    "snf": lambda: snf(_A),
    "ModSolver.solve_matrix": lambda: _SOLVER.solve_matrix(_A),
    # its dense result, one column per column the reduction zeroed
    "ModSolver.kernel": lambda: _MOD_SOLVER.kernel(),
    "fpab.unit_block_matrix": lambda: fpab.unit_block_matrix(
        [fpab.zmod(2)], [fpab.zmod(2)], [(0, 0, 1, IntMatrix.identity(1))]),
    # one product per side, each charged for its rows x cols
    "fpab.apply_blockwise": lambda: fpab.apply_blockwise(
        _A, 1, 2, left=IntMatrix.from_rows([[3]]), right=_A),
    # its one restriction, ZY(1)(1) -> ZY(1)(0), is a dense 1x1 matrix,
    # built when maps is first read
    "poset_sheaf.FreePresheaf": lambda: poset_sheaf.FreePresheaf(
        poset_sheaf.chain(2), (1,)).maps,
}
# The rest copy or read entries they are given, run _column_reduce or
# solve_matrix, read a reduction already charged (ModSolver.pivots, and
# ModSolver.of_basis, which copies an echelon basis its group's
# _column_reduce was charged for), or (diagonal) validate outside input
# with no caller in the engine.
UNCHARGED = {
    "IntMatrix.__init__", "IntMatrix._wrap", "IntMatrix.from_rows",
    "IntMatrix.from_cols", "IntMatrix.diagonal", "IntMatrix.column",
    "IntMatrix.entry", "IntMatrix.row", "IntMatrix.col",
    "IntMatrix.column_matrix", "IntMatrix.transpose", "IntMatrix.take_cols",
    "IntMatrix.take_rows", "IntMatrix.__add__", "IntMatrix.__sub__",
    "IntMatrix.__neg__", "IntMatrix.scale", "IntMatrix.is_zero",
    "IntMatrix.__eq__", "IntMatrix.__hash__", "IntMatrix.__repr__",
    "work_cap", "_charge", "hstack", "vstack", "_from_sparse_cols",
    "kernel_basis", "constrained_kernel", "column_space_basis", "rank",
    "solve", "solve_mod", "_combine", "_xgcd", "ModSolver.__init__",
    "ModSolver.solve", "ModSolver.pivots", "ModSolver.of_basis",
    "SnfSolver.__init__", "SnfSolver.solve",
    "SnfSolver.solve_matrix", "SmithDecomposition.__init__",
    "SmithDecomposition.diagonal",
}


def test_every_exactint_builder_is_metered_or_exempt():
    # a builder added later must join one of the two lists above
    names = {f"{cls.__name__}.{n}"
             for cls in (IntMatrix, ModSolver, SnfSolver, SmithDecomposition)
             for n, v in vars(cls).items()
             if callable(v) or isinstance(v, classmethod)}
    names |= {n for n, v in vars(exactint).items()
              if inspect.isfunction(v) and v.__module__ == exactint.__name__}
    assert names == (set(CHARGED) | UNCHARGED) - {
        "fpab.unit_block_matrix", "fpab.precompose", "fpab.apply_blockwise",
        "fpab.minimized", "poset_sheaf.FreePresheaf"}


@pytest.mark.parametrize("name", sorted(CHARGED))
def test_metered_builders_raise_under_a_zero_cell_meter(name):
    with pytest.raises(WorkCapped, match="capped at 0 cells"):
        with work_cap(0):
            CHARGED[name]()
    CHARGED[name]()  # and run unmetered once the block is left


def test_elimination_charges_its_input_and_the_entries_it_rewrites():
    # 4 input cells, then column 1 minus 2 * column 0 rewrites the 2
    # entries of column 0's data, at _STEP_CELLS each
    with work_cap(12):
        _column_reduce(_A, 0)
    with pytest.raises(WorkCapped, match="needs at least 12"):
        with work_cap(11):
            _column_reduce(_A, 0)


def test_solve_charges_the_pivots_each_column_passes():
    # over the three pivots of diag(1, 1, 2): e0 is done after the first,
    # e2 passes all three, the zero column none, and e2 + e0 stops at the
    # remainder in row 2 after three: (1 + 3 + 0) and 3 pivots at
    # _STEP_CELLS each
    solver = ModSolver(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
                       IntMatrix.zero(3, 0))
    solvable = IntMatrix.from_cols([[1, 0, 0], [0, 0, 2], [0, 0, 0]])
    with work_cap(16):
        assert solver.solve_matrix(solvable) == IntMatrix.from_cols(
            [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(WorkCapped, match="needs at least 16"):
        with work_cap(15):
            solver.solve_matrix(solvable)
    with work_cap(12):
        assert solver.solve(IntMatrix.column([1, 0, 1])) is None
    with pytest.raises(WorkCapped, match="needs at least 12"):
        with work_cap(11):
            solver.solve(IntMatrix.column([1, 0, 1]))


def test_work_cap_is_a_running_total_and_restores_the_outer_meter():
    with work_cap(8):
        IntMatrix.zero(2, 2)
        with work_cap(4):
            IntMatrix.identity(2)
        IntMatrix.identity(2)
        with pytest.raises(WorkCapped, match="needs at least 9"):
            IntMatrix.zero(1, 1)
    assert exactint._meter is None
