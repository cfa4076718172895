"""Tests for finitely presented abelian groups.

Oracles used here are deliberately low-tech and share no code with the
implementation: hom counts come from enumerating generator images over
diagonal presentations, canonical forms are cross-checked by counting
subgroup closures inside (Z/N)^g for several N, and kernel/cokernel are
verified elementwise on groups small enough to enumerate.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from extcalc.exactint import IntMatrix, ModSolver, hstack, snf, solve
from extcalc.fpab import (
    DimensionMismatch,
    Element,
    FpAbGroup,
    FpAbHom,
    IllDefined,
    NotEpi,
    NotFree,
    apply_blockwise,
    cokernel,
    compose,
    corestrict,
    describe,
    direct_sum,
    direct_sum_many,
    free_abelian,
    from_invariants,
    hom_group,
    identity_hom,
    induced_hom_group_map,
    is_epi,
    is_mono,
    kernel,
    lift_through_epi,
    make_group,
    make_hom,
    minimized,
    precompose,
    zero_hom,
    zmod,
)


# ---------------------------------------------------------------- oracles

def oracle_hom_count(src_moduli, tgt_moduli):
    """Count homs between direct sums of cyclics by enumerating images.

    A hom is a matrix column per source generator; the image of generator i
    must be killed by d_i.  Entry ranges are the target moduli (0 means Z,
    which forces the entry to 0 whenever d_i > 0 and admits no nonzero
    choice in a finite count, so infinite targets only appear with d_i > 0).
    """
    count = 1
    for d in src_moduli:
        per_gen = 1
        for e in tgt_moduli:
            if e == 0:
                if d != 0:
                    per_gen *= 1  # only the zero image is torsion in Z
                else:
                    return None  # Hom(Z, Z) is infinite
            else:
                per_gen *= math.gcd(d, e) if d else e
        count *= per_gen
    return count


def span_size_mod(rel: IntMatrix, n: int) -> int:
    """Order of the subgroup of (Z/n)^g generated by the relation columns."""
    g = rel.rows
    gens = [tuple(rel.entry(i, j) % n for i in range(g)) for j in range(rel.cols)]
    seen = {(0,) * g}
    frontier = [(0,) * g]
    while frontier:
        x = frontier.pop()
        for gv in gens:
            y = tuple((a + b) % n for a, b in zip(x, gv))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def random_group(rng, max_gens=4, span=6) -> FpAbGroup:
    g = rng.randint(0, max_gens)
    k = rng.randint(0, max_gens)
    rel = IntMatrix(g, k, [[rng.randint(-span, span) for _ in range(k)]
                           for _ in range(g)])
    return make_group(g, rel)


def random_finite_group(rng, max_order=24) -> FpAbGroup:
    while True:
        moduli = [rng.choice([2, 2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))]
        if math.prod(moduli) <= max_order:
            return from_invariants(0, moduli)


def random_hom(rng, a: FpAbGroup, b: FpAbGroup) -> FpAbHom:
    hg = hom_group(a, b)
    m = IntMatrix.zero(b.gens, a.gens)
    for h in hg.basis:
        m = m + h.matrix.scale(rng.randint(-3, 3))
    return FpAbHom(a, b, m)


# ---------------------------------------------------------------- groups

def test_make_group_examples():
    assert make_group(1, IntMatrix.zero(1, 0)).canonical_form == (1, ())
    g = make_group(2, IntMatrix.from_cols([(2, 0), (0, 3)], rows=2))
    assert g.canonical_form == (0, (6,))
    g = make_group(2, IntMatrix.from_cols([(1, 0)], rows=2))
    assert g.canonical_form == (1, ())
    with pytest.raises(DimensionMismatch):
        make_group(2, IntMatrix.zero(3, 1))


def test_canonical_form_against_mod_n_spans():
    # For any n, the index of the relation span inside (Z/n)^g must equal
    # n^rank * prod(gcd(d_i, n)).  Several n pin down the invariant factors.
    rng = random.Random(2001)
    for _ in range(60):
        g = random_group(rng)
        r, factors = g.canonical_form
        for n in (2, 3, 4, 5, 8, 9):
            index = n ** g.gens // span_size_mod(g.relations, n)
            expected = n ** r * math.prod(math.gcd(d, n) for d in factors)
            assert index == expected


def test_monomial_fast_path_matches_snf():
    # same group presented diagonally and through a unimodular disguise
    rng = random.Random(2002)
    for _ in range(30):
        moduli = [rng.choice([0, 2, 3, 4, 6, 12]) for _ in range(rng.randint(1, 3))]
        diag = from_invariants(sum(1 for m in moduli if m == 0),
                               [m for m in moduli if m])
        g = len(moduli)
        cols = [[moduli[i] if i == j else 0 for i in range(g)]
                for j in range(g) if moduli[j]]
        rel = IntMatrix.from_cols(cols, rows=g)
        mono = make_group(g, rel)
        # the echelon basis of a diagonal presentation is monomial, so the
        # canonical form comes from its pivots without a Smith form
        assert all(len(col) == 1 for _, _, col in mono._echelon_basis())
        # disguise: mix rows with a random unimodular transform
        u = IntMatrix.identity(g)
        for _ in range(4):
            i, j = rng.randrange(g), rng.randrange(g)
            if i != j:
                bump = IntMatrix(g, g, [[1 if a == b else
                                         (rng.randint(-2, 2) if (a, b) == (i, j) else 0)
                                         for b in range(g)] for a in range(g)])
                u = u * bump
        mixed = make_group(g, u * rel)
        assert mono.canonical_form == mixed.canonical_form == diag.canonical_form


def test_describe():
    assert describe(make_group(0, IntMatrix.zero(0, 0))) == "0"
    assert describe(free_abelian(1)) == "Z"
    assert describe(from_invariants(2, [2, 6])) == "Z^2 + Z/2 + Z/6"
    assert describe(zmod(5)) == "Z/5"


def test_order_and_trivial():
    assert zmod(6).order() == 6
    assert free_abelian(1).order() is None
    assert make_group(0, IntMatrix.zero(0, 0)).is_trivial()
    assert zmod(1).is_trivial()
    assert from_invariants(0, [2, 3]).order() == 6


def test_element_reduction_is_canonical():
    rng = random.Random(2003)
    for _ in range(40):
        g = random_group(rng)
        if g.gens == 0:
            continue
        x = IntMatrix.column([rng.randint(-20, 20) for _ in range(g.gens)])
        shift = IntMatrix.zero(g.gens, 1)
        for j in range(g.relations.cols):
            shift = shift + g.relations.column_matrix(j).scale(rng.randint(-3, 3))
        assert g.reduce(x) == g.reduce(x + shift)
        # the reduction stays in the same coset
        assert g.reduce(g.reduce(x) - x).is_zero()


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_coset_normal_form_depends_on_the_lattice_alone(rng):
    # one lattice presented as R, as R*Q for a random unimodular Q, and as R
    # plus a column that combines its columns
    group = random_group(rng)
    rel, k = group.relations, group.relations.cols
    q = IntMatrix.identity(k)
    for _ in range(5 if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        q = q * IntMatrix(k, k, [[1 if a == b else c if (a, b) == (j, i) else 0
                                  for b in range(k)] for a in range(k)])
    combo = rel * IntMatrix.column([rng.randint(-3, 3) for _ in range(k)])
    x = IntMatrix.column([rng.randint(-30, 30) for _ in range(group.gens)])
    y = group.reduce(x)
    assert make_group(group.gens, rel * q).reduce(x) == y
    assert make_group(group.gens, hstack(rel, combo)).reduce(x) == y
    # the representative lies in the pivot box and in the coset of x
    for r, p, _ in group._echelon_basis():
        assert 0 <= y.entry(r, 0) < p
    assert solve(rel, y - x) is not None


def test_element_arithmetic():
    g = zmod(6)
    a = g.element([7])
    b = g.element([1])
    assert a == b
    assert (a + b) == g.element([2])
    assert (a - b).is_zero()
    assert (-a) == g.element([5])
    assert a.scale(6).is_zero()
    with pytest.raises(TypeError):
        a.scale(1.5)
    assert len(list(g.elements())) == 6
    assert len(set(g.elements())) == 6


def test_elements_enumeration_nondiagonal():
    g = make_group(2, IntMatrix.from_cols([(2, 1), (0, 4)], rows=2))
    elems = list(g.elements())
    assert len(elems) == 8 and len(set(elems)) == 8
    assert g.order() == 8


# ---------------------------------------------------------------- homs

def test_make_hom_examples():
    z = free_abelian(1)
    assert make_hom(z, z, IntMatrix.from_rows([[2]])) is not None
    with pytest.raises(IllDefined):
        make_hom(zmod(2), zmod(4), IntMatrix.from_rows([[1]]))
    make_hom(zmod(2), zmod(4), IntMatrix.from_rows([[2]]))
    with pytest.raises(DimensionMismatch):
        make_hom(z, z, IntMatrix.zero(2, 1))
    # all relations are reduced at once; the first one that survives is named
    src = make_group(2, IntMatrix.from_rows([[2, 0, 0], [0, 3, 5]]))
    with pytest.raises(IllDefined, match="^relation column 1 maps outside"):
        make_hom(src, zmod(4), IntMatrix.from_rows([[2, 1]]))


def test_hom_equality_mod_relations():
    f = make_hom(zmod(2), zmod(4), IntMatrix.from_rows([[2]]))
    g = make_hom(zmod(2), zmod(4), IntMatrix.from_rows([[6]]))
    h = make_hom(zmod(2), zmod(4), IntMatrix.from_rows([[0]]))
    assert f == g
    assert f != h
    assert h.is_zero()


def test_reduced_matrix_reduces_each_column():
    # reduced_matrix reduces the whole matrix in one forward pass against
    # the target's echelon basis; it must agree with reduce column by column
    rng = random.Random(4107)
    targets = [from_invariants(1, [2, 6]), zmod(4), free_abelian(2),
               make_group(2, IntMatrix.from_rows([[2, 1], [4, 3]])),
               make_group(3, IntMatrix.from_rows([[2], [0], [3]]))]
    for tgt in targets:
        for cols in (0, 1, 3):
            m = IntMatrix(tgt.gens, cols, [[rng.randint(-9, 9)
                                            for _ in range(cols)]
                                           for _ in range(tgt.gens)])
            h = FpAbHom(free_abelian(cols), tgt, m)
            expected = IntMatrix.from_cols(
                [tgt.reduce(m.column_matrix(j)).col(0) for j in range(cols)],
                rows=tgt.gens)
            assert h.reduced_matrix() == expected


def test_hom_evaluation_and_composition():
    q = make_hom(free_abelian(1), zmod(2), IntMatrix.from_rows([[1]]))
    dbl = make_hom(free_abelian(1), free_abelian(1), IntMatrix.from_rows([[2]]))
    assert compose(q, dbl).is_zero()
    x = free_abelian(1).element([3])
    assert q(x) == zmod(2).element([1])
    assert identity_hom(zmod(6))(zmod(6).element([4])) == zmod(6).element([4])
    assert zero_hom(zmod(4), zmod(2))(zmod(4).element([1])).is_zero()


def oracle_kron(a, b):
    """The Kronecker product from its definition: entry (i, ib), (j, jb)
    is a[i][j] * b[ib][jb]."""
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, [
        [a.data[i][j] * b.data[ib][jb] for j in range(a.cols) for jb in range(b.cols)]
        for i in range(a.rows) for ib in range(b.rows)])


def oracle_vec(m):
    """Stack the columns of m."""
    return IntMatrix(m.rows * m.cols, 1,
                     [[m.data[i][j]] for j in range(m.cols) for i in range(m.rows)])


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_precompose_is_the_transposed_kronecker_product(rng):
    rows, cols = rng.randint(0, 4), rng.randint(0, 4)
    r = IntMatrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)]
                               for _ in range(rows)])
    a = random_group(rng)
    m = precompose(r, a)
    assert m == oracle_kron(r.transpose(), IntMatrix.identity(a.gens))
    h = IntMatrix(a.gens, r.rows, [[rng.randint(-5, 5) for _ in range(r.rows)]
                                   for _ in range(a.gens)])
    assert m * oracle_vec(h) == oracle_vec(h * r)


def random_matrix(rng, rows, cols, span=3):
    return IntMatrix(rows, cols, [[rng.randint(-span, span)
                                   for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_apply_blockwise_is_the_sandwich_on_every_column(rng):
    # every shape, empty ones included: n or m may be 0 and so may k
    n, m, k = (rng.randint(0, 3) for _ in range(3))
    vecs = random_matrix(rng, n * m, k)
    left, right = (random_matrix(rng, rng.randint(0, 3), n),
                   random_matrix(rng, m, rng.randint(0, 3)))
    left = left if rng.random() < 0.7 else None
    right = right if rng.random() < 0.7 else None
    out = apply_blockwise(vecs, n, m, left, right)
    n2 = n if left is None else left.rows
    m2 = m if right is None else right.cols
    assert (out.rows, out.cols) == (n2 * m2, k)
    for j in range(k):
        h = IntMatrix(n, m, [[vecs.data[c * n + i][j] for c in range(m)]
                             for i in range(n)])
        if left is not None:
            h = left * h
        if right is not None:
            h = h * right
        assert out.column_matrix(j) == oracle_vec(h)


def per_generator_induced_map(src_hg, tgt_hg, left, right):
    """The induced map one basis hom at a time: compose on both sides,
    then solve for the coordinates of the image."""
    cols = []
    for h in src_hg.basis:
        if left is not None:
            h = compose(left, h)
        if right is not None:
            h = compose(h, right)
        cols.append(tgt_hg.coords_of(h).coords.col(0))
    return FpAbHom(src_hg.group, tgt_hg.group,
                   IntMatrix.from_cols(cols, rows=tgt_hg.group.gens))


@settings(max_examples=80, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_induced_map_is_the_per_generator_map(rng):
    # Hom(A, B) -> Hom(A2, B2), h -> l.h.r, on random presented groups:
    # zero generators and no relations are drawn too
    a, b, a2, b2 = (random_group(rng, max_gens=3, span=4) for _ in range(4))
    sides = rng.choice(["left", "right", "both"])
    left = random_hom(rng, b, b2) if sides != "right" else None
    right = random_hom(rng, a2, a) if sides != "left" else None
    src_hg = hom_group(a, b)
    tgt_hg = hom_group(a if right is None else a2, b if left is None else b2)
    batched = induced_hom_group_map(src_hg, tgt_hg,
                                    None if left is None else left.matrix,
                                    None if right is None else right.matrix)
    oracle = per_generator_induced_map(src_hg, tgt_hg, left, right)
    assert batched.matrix == oracle.matrix


def test_hom_group_frozen_examples():
    assert hom_group(zmod(2), free_abelian(1)).group.is_trivial()
    hg = hom_group(free_abelian(1), from_invariants(1, [4]))
    assert hg.group.canonical_form == (1, (4,))
    assert hom_group(zmod(4), zmod(6)).group.canonical_form == (0, (2,))


def test_hom_group_counts_match_brute_force():
    rng = random.Random(2004)
    cases = [
        ([2], [4]), ([4], [6]), ([2, 4], [8]), ([6], [2, 3]),
        ([2, 2], [2, 4]), ([3], [9, 3]), ([8], [2]), ([12], [18]),
    ]
    for src, tgt in cases:
        a = from_invariants(0, src)
        b = from_invariants(0, tgt)
        hg = hom_group(a, b)
        assert hg.group.order() == oracle_hom_count(src, tgt)
    # free sources: Hom(Z^r, B) = B^r
    hg = hom_group(free_abelian(2), from_invariants(1, [3]))
    assert hg.group.canonical_form == (2, (3, 3))


@settings(max_examples=80, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_hom_group_basis_homs_are_well_defined(rng):
    # hom_group builds its basis unchecked: each lattice column satisfies
    # the relation constraint by construction, which make_hom re-checks
    a = random_group(rng, max_gens=3, span=4)
    b = random_group(rng, max_gens=3, span=4)
    hg = hom_group(a, b)
    assert len(hg.basis) == hg.group.gens
    for h in hg.basis:
        assert make_hom(a, b, h.matrix) == h


def test_hom_group_count_invariant_under_presentation():
    rng = random.Random(2005)
    for _ in range(20):
        a = random_finite_group(rng, max_order=12)
        b = random_finite_group(rng, max_order=12)
        # disguise a with a redundant generator
        g = a.gens + 1
        cols = [list(a.relations.col(j)) + [0] for j in range(a.relations.cols)]
        cols.append([0] * a.gens + [1])
        disguised = make_group(g, IntMatrix.from_cols(cols, rows=g))
        assert hom_group(disguised, b).group.canonical_form == \
            hom_group(a, b).group.canonical_form


def test_hom_group_basis_spans_all_homs():
    # every well-defined generator assignment is reachable from the basis
    a = from_invariants(0, [2, 4])
    b = from_invariants(0, [4])
    hg = hom_group(a, b)
    found = set()
    for e in hg.group.elements():
        h = hg.hom_of(e)
        found.add(h.reduced_matrix())
        back = hg.coords_of(h)
        assert back == e
    # oracle: entries (x, y) with 2x = 0, 4y = 0 in Z/4
    expected = {(x, y) for x in (0, 2) for y in range(4)}
    assert {(m.entry(0, 0), m.entry(0, 1)) for m in found} == expected


def test_hom_group_zero_endpoints():
    zero = make_group(0, IntMatrix.zero(0, 0))
    assert hom_group(zero, zmod(4)).group.is_trivial()
    assert hom_group(zmod(4), zero).group.is_trivial()


# ---------------------------------------------------------------- kernel / cokernel

def test_kernel_examples():
    z = free_abelian(1)
    k, incl = kernel(make_hom(z, z, IntMatrix.from_rows([[2]])))
    assert k.is_trivial()
    k, incl = kernel(make_hom(z, zmod(2), IntMatrix.from_rows([[1]])))
    assert k.canonical_form == (1, ())
    assert abs(incl.matrix.entry(0, 0)) == 2
    a = from_invariants(0, [6])
    k, incl = kernel(zero_hom(a, zmod(4)))
    assert k.canonical_form == a.canonical_form
    assert is_mono(incl)


def test_cokernel_examples():
    z = free_abelian(1)
    c, proj = cokernel(make_hom(z, z, IntMatrix.from_rows([[2]])))
    assert c.canonical_form == (0, (2,))
    c, _ = cokernel(identity_hom(z))
    assert c.is_trivial()
    c, proj = cokernel(make_hom(z, zmod(6), IntMatrix.from_rows([[4]])))
    assert c.canonical_form == (0, (2,))
    assert is_epi(proj)


def test_kernel_cokernel_elementwise():
    rng = random.Random(2006)
    for _ in range(15):
        a = random_finite_group(rng)
        b = random_finite_group(rng)
        f = random_hom(rng, a, b)
        k, incl = kernel(f)
        assert compose(f, incl).is_zero()
        killed = {x.coords for x in a.elements() if f(x).is_zero()}
        image_of_k = {incl(e).coords for e in k.elements()}
        assert image_of_k == killed
        assert k.order() == len(killed)

        c, proj = cokernel(f)
        assert compose(proj, f).is_zero()
        assert is_epi(proj)
        image = {f(x).coords for x in a.elements()}
        assert c.order() * len(image) == b.order()
        # proj identifies exactly the image cosets
        reps = {proj(y).coords for y in b.elements()}
        assert len(reps) == c.order()


def test_is_epi_is_mono_examples():
    z = free_abelian(1)
    dbl = make_hom(z, z, IntMatrix.from_rows([[2]]))
    assert is_mono(dbl) and not is_epi(dbl)
    q = make_hom(z, zmod(2), IntMatrix.from_rows([[1]]))
    assert is_epi(q) and not is_mono(q)
    h = make_hom(zmod(4), zmod(4), IntMatrix.from_rows([[2]]))
    assert not is_epi(h) and not is_mono(h)
    assert is_epi(identity_hom(zmod(6))) and is_mono(identity_hom(zmod(6)))


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_is_mono_is_epi_agree_with_kernel_and_cokernel(rng):
    # the verdicts read f's own solver; the oracle builds the kernel and
    # cokernel groups and asks whether they are trivial.  Inclusions and
    # projections, monic and epic by construction, join random maps
    a, b = (random_group(rng, max_gens=3, span=4) for _ in range(2))
    f = random_hom(rng, a, b)
    for g in (f, kernel(f)[1], cokernel(f)[1], identity_hom(a),
              zero_hom(a, b), compose(cokernel(f)[1], f)):
        assert is_mono(g) == kernel(g)[0].is_trivial()
        assert is_epi(g) == cokernel(g)[0].is_trivial()


# ---------------------------------------------------------------- lifting

def test_lift_through_epi_examples():
    z = free_abelian(1)
    p = make_hom(z, zmod(2), IntMatrix.from_rows([[1]]))
    h = lift_through_epi(p, p)
    assert compose(p, h) == p
    h0 = lift_through_epi(p, zero_hom(z, zmod(2)))
    assert compose(p, h0).is_zero()

    z2 = free_abelian(2)
    add = make_hom(z2, z, IntMatrix.from_rows([[1, 2]]))
    sec = lift_through_epi(add, identity_hom(z))
    assert compose(add, sec) == identity_hom(z)

    with pytest.raises(NotFree):
        lift_through_epi(p, make_hom(zmod(2), zmod(2), IntMatrix.identity(1)))
    # p need not be epi: the lift exists exactly when g lands in im(p)
    dbl = make_hom(z, z, IntMatrix.from_rows([[2]]))
    four = make_hom(z, z, IntMatrix.from_rows([[4]]))
    assert compose(dbl, lift_through_epi(dbl, four)) == four
    with pytest.raises(NotEpi):
        lift_through_epi(dbl, identity_hom(z))


def test_lift_through_epi_random():
    rng = random.Random(2007)
    for _ in range(15):
        b = random_finite_group(rng, max_order=16)
        # cover with a superfluous free summand to keep p interesting
        s = direct_sum(free_abelian(1), b)
        p = s.pr_b
        assert is_epi(p)
        f = free_abelian(rng.randint(1, 2))
        g = random_hom(rng, f, b)
        h = lift_through_epi(p, g)
        assert compose(p, h) == g


def with_fresh_solver(f: FpAbHom) -> FpAbHom:
    g = FpAbHom(f.src, f.tgt, f.matrix, check=False)
    g._solver = ModSolver(f.matrix, f.tgt.relations)
    return g


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_kept_solvers_answer_as_fresh_ones(rng):
    # every call below but the fresh ones reads a solver already used
    a, b = random_group(rng), random_group(rng)
    f = random_hom(rng, a, b)
    k, incl = kernel(f)
    for ker, inc in (kernel(f), kernel(with_fresh_solver(f))):
        assert ker == k and inc.matrix == incl.matrix
    free = free_abelian(rng.randint(0, 2))

    def off_by_relations(h: FpAbHom) -> FpAbHom:
        # the same hom, its matrix moved by target relations
        rel = h.tgt.relations
        shift = IntMatrix(rel.cols, free.gens, [
            [rng.randint(-2, 2) for _ in range(free.gens)]
            for _ in range(rel.cols)])
        return FpAbHom(free, h.tgt, h.matrix + rel * shift, check=False)

    inside = off_by_relations(compose(incl, random_hom(rng, free, k)))
    expected = corestrict(inside, with_fresh_solver(incl)).matrix
    for _ in range(2):
        assert corestrict(inside, incl).matrix == expected
    for g in (off_by_relations(compose(f, random_hom(rng, free, a))),
              random_hom(rng, free, b)):
        try:
            expected = lift_through_epi(with_fresh_solver(f), g).matrix
        except NotEpi:
            expected = None
        for _ in range(2):
            try:
                assert lift_through_epi(f, g).matrix == expected
            except NotEpi:
                assert expected is None


# ---------------------------------------------------------------- sums

def test_direct_sum_examples():
    s = direct_sum(free_abelian(1), zmod(2))
    assert s.group.canonical_form == (1, (2,))
    s = direct_sum(zmod(2), zmod(3))
    assert s.group.canonical_form == (0, (6,))
    a = from_invariants(1, [4])
    s = direct_sum(a, make_group(0, IntMatrix.zero(0, 0)))
    assert s.group.canonical_form == a.canonical_form


def test_biproduct_identities():
    a, b = from_invariants(0, [4]), from_invariants(1, [2])
    s = direct_sum(a, b)
    group, in_a, in_b, pr_a, pr_b = s
    assert compose(pr_a, in_a) == identity_hom(a)
    assert compose(pr_b, in_b) == identity_hom(b)
    assert compose(pr_a, in_b).is_zero()
    assert compose(pr_b, in_a).is_zero()
    total = compose(in_a, pr_a) + compose(in_b, pr_b)
    assert total == identity_hom(group)


def test_direct_sum_many():
    parts = [zmod(2), free_abelian(1), zmod(3)]
    total, offsets = direct_sum_many(parts)
    assert offsets == [0, 1, 2]
    assert total.canonical_form == (1, (6,))
    empty, off = direct_sum_many([])
    assert empty.is_trivial() and off == []


# ---------------------------------------------------------------- minimized

def test_minimized_roundtrip():
    rng = random.Random(2008)
    for _ in range(30):
        g = random_group(rng)
        small, to_small, from_small = minimized(g)
        assert small.canonical_form == g.canonical_form
        assert small.gens == small.rank + len(small.invariant_factors)
        assert compose(to_small, from_small) == identity_hom(small)
        assert compose(from_small, to_small) == identity_hom(g)


@st.composite
def peelable_groups(draw):
    """Z^g modulo columns of three kinds: a unit pivot +-e_i with random
    entries below it, a single entry m*e_i, and a dense column."""
    g = draw(st.integers(0, 5))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["unit", "single", "dense"]),
                              max_size=6)):
        i = draw(st.integers(0, max(g - 1, 0)))
        col = [0] * g
        if g and kind == "unit":
            col[i] = draw(st.sampled_from([1, -1]))
            col[i + 1:] = draw(st.lists(st.integers(-4, 4), min_size=g - i - 1,
                                        max_size=g - i - 1))
        elif g and kind == "single":
            col[i] = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, -4]))
        elif g:
            col = draw(st.lists(st.integers(-6, 6), min_size=g, max_size=g))
        cols.append(col)
    return make_group(g, IntMatrix.from_cols(cols, rows=g))


@settings(max_examples=300, deadline=None)
@given(group=peelable_groups())
@example(group=make_group(0, IntMatrix.zero(0, 2)))  # no generators
@example(group=free_abelian(3))                      # no relations
@example(group=from_invariants(1, [4, 6]))           # 4 and 6: no chain
@example(group=make_group(3, IntMatrix.from_cols(   # a unit pivot over them
    [[1, 2, 3], [0, 4, 0], [0, 0, 6]], rows=3)))
def test_minimized_is_the_smith_form_presentation(group):
    # the oracle is a full Smith form of the relations, which the peel
    # avoids: its nonzero diagonal gives the rank and invariant factors
    diag = [d for d in snf(group.relations).diagonal() if d]
    rank, factors = group.gens - len(diag), tuple(d for d in diag if d > 1)
    assert group.canonical_form == (rank, factors)
    small, to_small, from_small = minimized(group)
    n = len(factors) + rank  # Z/d for each invariant factor d, then Z^rank
    assert small.relations == IntMatrix.from_cols(
        [[d * (i == j) for i in range(n)] for j, d in enumerate(factors)], rows=n)
    assert to_small.matrix * from_small.matrix == IntMatrix.identity(small.gens)
    assert compose(from_small, to_small) == identity_hom(group)
    make_hom(group, small, to_small.matrix)
    make_hom(small, group, from_small.matrix)

