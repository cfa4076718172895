"""Finitely presented abelian groups and their homomorphisms.

A group is Z^g modulo the column span of a relations matrix.  Everything
downstream (Ext groups, cohomology, presheaf stalks) is built from the
kernels, cokernels, hom-groups, and lifts implemented here.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product
from operator import sub
from typing import Iterable, List, Optional, Sequence, Tuple

from . import exactint
from .exactint import (
    DimensionMismatch,
    IntMatrix,
    ModSolver,
    _column_reduce,
    _from_sparse_cols,
    block_diag,
    column_space_basis,
    constrained_kernel,
    hstack,
    snf,
    vstack,
)


class IllDefined(ValueError):
    """The matrix does not send source relations into target relations."""


class NotFree(ValueError):
    """An operation demanded a free group and received relations."""


class NotEpi(ValueError):
    """An operation demanded a surjection."""


def _invariant_chain(moduli: Sequence[int]) -> Tuple[int, ...]:
    """Normalize a multiset of cyclic orders into an invariant-factor chain:
    one pass of gcd/lcm steps, as at the end of snf, makes each divide the
    later ones when the sorted orders do not already."""
    vals = sorted(m for m in moduli if m > 1)
    if any(b % a for a, b in zip(vals, vals[1:])):
        for i, j in combinations(range(len(vals)), 2):
            if vals[j] % vals[i]:
                g = math.gcd(vals[i], vals[j])
                vals[i], vals[j] = g, vals[i] * vals[j] // g
    return tuple(v for v in vals if v > 1)


class FpAbGroup:
    """Z^gens modulo the column span of `relations`.

    The canonical form (free rank, invariant factors each >= 2) classifies
    the group up to isomorphism.  Everything here reads one column-echelon
    basis of the relation lattice, made on first use: cosets reduce against
    it, solves are in coordinates on it, and its pivots give the canonical
    form, by a Smith form only of a core that peeling its unit pivots
    leaves (_peel, _core_smith).
    """

    __slots__ = ("gens", "relations", "_echelon", "_canon", "_solver")

    def __init__(self, gens: int, relations: Optional[IntMatrix] = None):
        if relations is None:
            relations = IntMatrix.zero(gens, 0)
        if relations.rows != gens:
            raise DimensionMismatch(
                f"relations have {relations.rows} rows, group has {gens} generators")
        self.gens = gens
        self.relations = relations
        self._echelon = self._canon = self._solver = None

    @property
    def solver(self) -> ModSolver:
        """The solver of echelon_matrix()·x = b, read off the echelon basis
        on first use and kept: b lies in the relation lattice exactly when
        it solves, and then x is unique."""
        if self._solver is None:
            self._solver = ModSolver.of_basis(self.gens, self._echelon_basis())
        return self._solver

    def echelon_matrix(self) -> IntMatrix:
        """The echelon basis of the relation lattice as matrix columns."""
        return _from_sparse_cols([col for _, _, col in self._echelon_basis()],
                                 self.gens)

    def _echelon_basis(self) -> List[Tuple[int, int, dict]]:
        """(pivot row, pivot, column) for each column of the echelon basis.

        Pivots are positive, pivot rows increase, and each column (a dict
        by row) is zero above its pivot row.
        """
        if self._echelon is None:
            order, npiv = _column_reduce(self.relations, track_rows=0)
            self._echelon = [(col.row, col.d[col.row], col.d) for col in order[:npiv]]
        return self._echelon

    def _peel(self) -> Tuple[List[dict], List[Tuple[int, int, dict]]]:
        """(phi, core): from the last pivot row up, an echelon column with
        pivot 1 at row r writes generator r in the kept ones (every other
        row) as phi[r], minus its other entries through phi.  The group is
        Z^kept modulo core, the other columns through phi, still echelon."""
        phi, core = [{i: 1} for i in range(self.gens)], []
        for r, p, col in reversed(self._echelon_basis()):
            if exactint._meter is not None:
                exactint._charge(exactint._STEP_CELLS * sum(len(phi[i]) for i in col))
            image = exactint._combine(col, phi)
            if p > 1:
                core.append((r, p, image))
            else:
                phi[r] = {i: -x for i, x in image.items() if i != r}
        return phi, core[::-1]

    @property
    def canonical_form(self) -> Tuple[int, Tuple[int, ...]]:
        """(free rank, invariant factors) classifying the group up to iso."""
        if self._canon is None:
            basis = self._echelon_basis()
            # a column with pivot 1 only expresses its pivot generator in
            # later ones, so single-entry columns carry all the torsion
            if all(p == 1 or len(col) == 1 for _, p, col in basis):
                factors = _invariant_chain([p for _, p, _ in basis])
            else:
                factors = tuple(d for d in _core_smith(self._peel()[1])[1] if d > 1)
            self._canon = (self.gens - len(basis), factors)
        return self._canon

    @property
    def rank(self) -> int:
        return self.canonical_form[0]

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        return self.canonical_form[1]

    def is_trivial(self) -> bool:
        return self.canonical_form == (0, ())

    def is_free(self) -> bool:
        """True when the presentation itself carries no nonzero relation."""
        return self.relations.is_zero()

    def order(self) -> Optional[int]:
        rank, factors = self.canonical_form
        if rank:
            return None
        return math.prod(factors) if factors else 1

    def reduce(self, m: IntMatrix) -> IntMatrix:
        """Canonical representative of each coset column + colspan(relations).

        It is the one element of the coset whose entry at each pivot row of
        the echelon basis lies in [0, pivot), so it depends on the lattice
        alone, not on how it is presented.  One forward pass serves every
        column.
        """
        if m.rows != self.gens:
            raise DimensionMismatch("coordinate columns have wrong height")
        basis = self._echelon_basis()
        if not basis:
            return m
        rows = list(m.data)
        for r, p, col in basis:
            if any(rows[r]) and any(qs := [x // p for x in rows[r]]):
                for i, v in col.items():
                    rows[i] = tuple(map(sub, rows[i], [q * v for q in qs]))
        return IntMatrix._wrap(m.rows, m.cols, tuple(rows))

    def element(self, coords: Sequence[int] | IntMatrix) -> "Element":
        if not isinstance(coords, IntMatrix):
            coords = IntMatrix.column(list(coords))
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, IntMatrix.zero(self.gens, 1))

    def elements(self) -> Iterable["Element"]:
        """All elements of a finite group: the box of reduced coordinates,
        last coordinate fastest."""
        if self.order() is None:
            raise ValueError("cannot enumerate an infinite group")
        # a finite group has a pivot in every row
        for coords in product(*(range(p) for _, p, _ in self._echelon_basis())):
            yield Element(self, IntMatrix.column(coords))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpAbGroup) and self.gens == other.gens
                and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.gens, self.relations))

    def __repr__(self) -> str:
        return f"FpAbGroup({describe(self)})"


def make_group(gens: int, relations: Optional[IntMatrix] = None) -> FpAbGroup:
    """Group with the given generator count and relator columns."""
    return FpAbGroup(gens, relations)


def free_abelian(rank_: int) -> FpAbGroup:
    return FpAbGroup(rank_)


def zmod(n: int) -> FpAbGroup:
    return FpAbGroup(1, IntMatrix.from_rows([[n]]))


def from_invariants(rank_: int, factors: Sequence[int] = ()) -> FpAbGroup:
    """Z/d for each d in factors, then rank_ copies of Z, as generators."""
    g = len(factors) + rank_
    return FpAbGroup(g, _from_sparse_cols([{i: d} for i, d in enumerate(factors)], g))


def describe(group: FpAbGroup) -> str:
    """Canonical form as text: '0', 'Z', 'Z^2 + Z/2 + Z/6', and so on."""
    rank_, factors = group.canonical_form
    parts = []
    if rank_ == 1:
        parts.append("Z")
    elif rank_ > 1:
        parts.append(f"Z^{rank_}")
    parts.extend(f"Z/{d}" for d in factors)
    return " + ".join(parts) if parts else "0"


class Element:
    """An element of an FpAbGroup, stored by canonical coset representative."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FpAbGroup, coords: IntMatrix):
        self.group = group
        self.coords = group.reduce(coords)

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def __add__(self, other: "Element") -> "Element":
        if self.group != other.group:
            raise DimensionMismatch("elements of different groups")
        return Element(self.group, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        if self.group != other.group:
            raise DimensionMismatch("elements of different groups")
        return Element(self.group, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.group, -self.coords)

    def scale(self, k: int) -> "Element":
        return Element(self.group, self.coords.scale(k))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.group == other.group
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.group, self.coords))

    def __repr__(self) -> str:
        return f"Element({tuple(r[0] for r in self.coords.data)})"


class FpAbHom:
    """Homomorphism between presented groups, as a matrix on generators.

    Two homs are equal when their matrices agree columnwise modulo the
    target relations; that is the equality of the underlying set maps.
    """

    __slots__ = ("src", "tgt", "matrix", "_solver")

    def __init__(self, src: FpAbGroup, tgt: FpAbGroup, matrix: IntMatrix,
                 check: bool = True):
        if matrix.rows != tgt.gens or matrix.cols != src.gens:
            raise DimensionMismatch(
                f"hom matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{tgt.gens}x{src.gens}")
        if check and src.relations.cols and not src.relations.is_zero():
            image = tgt.reduce(matrix * src.relations)
            for j, col in enumerate(image.transpose().data):
                if any(col):
                    raise IllDefined(
                        f"relation column {j} maps outside the target relations")
        self.src = src
        self.tgt = tgt
        self.matrix = matrix
        self._solver = None

    @property
    def solver(self) -> ModSolver:
        """The ModSolver of [matrix | tgt.relations], built on first read
        and kept: kernels, corestrictions and lifts through the hom all
        read its one reduction."""
        if self._solver is None:
            self._solver = ModSolver(self.matrix, self.tgt.relations)
        return self._solver

    def __call__(self, x: Element) -> Element:
        if x.group != self.src:
            raise DimensionMismatch("element is not in the source group")
        return Element(self.tgt, self.matrix * x.coords)

    def reduced_matrix(self) -> IntMatrix:
        return self.tgt.reduce(self.matrix)

    def is_zero(self) -> bool:
        return self.reduced_matrix().is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpAbHom) and self.src == other.src
                and self.tgt == other.tgt
                and self.reduced_matrix() == other.reduced_matrix())

    def __hash__(self) -> int:
        return hash((self.src, self.tgt, self.reduced_matrix()))

    def __add__(self, other: "FpAbHom") -> "FpAbHom":
        if self.src != other.src or self.tgt != other.tgt:
            raise DimensionMismatch("hom addition endpoint mismatch")
        return FpAbHom(self.src, self.tgt, self.matrix + other.matrix, check=False)

    def __neg__(self) -> "FpAbHom":
        return FpAbHom(self.src, self.tgt, -self.matrix, check=False)

    def __repr__(self) -> str:
        return f"FpAbHom({describe(self.src)} -> {describe(self.tgt)})"


def make_hom(src: FpAbGroup, tgt: FpAbGroup, matrix: IntMatrix) -> FpAbHom:
    """Validated homomorphism; raises IllDefined when relations do not map."""
    return FpAbHom(src, tgt, matrix, check=True)


def identity_hom(group: FpAbGroup) -> FpAbHom:
    return FpAbHom(group, group, IntMatrix.identity(group.gens), check=False)


def zero_hom(src: FpAbGroup, tgt: FpAbGroup) -> FpAbHom:
    return FpAbHom(src, tgt, IntMatrix.zero(tgt.gens, src.gens), check=False)


def compose(f: FpAbHom, g: FpAbHom) -> FpAbHom:
    """f after g."""
    if g.tgt != f.src:
        raise DimensionMismatch("composition endpoint mismatch")
    return FpAbHom(g.src, f.tgt, f.matrix * g.matrix, check=False)


def _vec(m: IntMatrix) -> IntMatrix:
    """Column-major vectorization."""
    return IntMatrix._wrap(m.rows * m.cols, 1,
                           tuple((r[j],) for j in range(m.cols) for r in m.data))


def _unvec(col: IntMatrix, rows: int, cols: int) -> IntMatrix:
    vals = [r[0] for r in col.data]
    return IntMatrix._wrap(rows, cols, tuple(
        tuple(vals[i + j * rows] for j in range(cols)) for i in range(rows)))


def unit_block_matrix(src_stalks: Sequence[FpAbGroup],
                      tgt_stalks: Sequence[FpAbGroup], terms) -> IntMatrix:
    """Block matrix summing c * m into block (t, i) over terms (t, i, c, m).

    Rows are blocked by tgt_stalks and columns by src_stalks; m must be
    tgt_stalks[t].gens x src_stalks[i].gens.  This is the one assembly
    routine behind every precomposition matrix and equalizer constraint,
    and on the group-ring hot path, so it accumulates into plain row lists.
    """
    col_offs, width = [], 0
    for s in src_stalks:
        col_offs.append(width)
        width += s.gens
    row_offs, height = [], 0
    for s in tgt_stalks:
        row_offs.append(height)
        height += s.gens
    if exactint._meter is not None:
        exactint._charge(height * width)
    rows = [[0] * width for _ in range(height)]
    for (t, i, c, m) in terms:
        roff, coff = row_offs[t], col_offs[i]
        for u, mrow in enumerate(m.data):
            row = rows[roff + u]
            for v, x in enumerate(mrow):
                if x:
                    row[coff + v] += c * x
    return IntMatrix._wrap(height, width, tuple(tuple(r) for r in rows))


def precompose(r: IntMatrix, a: FpAbGroup) -> IntMatrix:
    """The matrix of h ↦ h·r on unit-image coordinates, for h : Z^rows(r)
    -> A: vec(h·r) = precompose(r, a)·vec(h), vec stacking columns.
    Block (t, i) is r[i][t]·I, so this is rᵀ ⊗ I."""
    ident = IntMatrix.identity(a.gens)
    terms = ((t, i, c, ident) for i, row in enumerate(r.data)
             for t, c in enumerate(row) if c)
    return unit_block_matrix([a] * r.rows, [a] * r.cols, terms)


class HomGroup:
    """Hom(A, B) as a presented group plus homs realizing its generators.

    Lattice columns are the generators' vec'd matrices; basis, their
    homs, is built on first read and kept.  coords_of inverts the
    generator map with the solver whose kernel gave the group its
    relations.
    """

    def __init__(self, src: FpAbGroup, tgt: FpAbGroup, group: FpAbGroup,
                 lattice: IntMatrix, solver: ModSolver):
        self.src = src
        self.tgt = tgt
        self.group = group
        self.lattice = lattice
        self._solver = solver
        self._basis = None

    @property
    def basis(self) -> List[FpAbHom]:
        if self._basis is None:
            self._basis = [FpAbHom(self.src, self.tgt, _unvec(
                self.lattice.column_matrix(j), self.tgt.gens, self.src.gens),
                check=False) for j in range(self.lattice.cols)]
        return self._basis

    def hom_of(self, coords: Element | IntMatrix) -> FpAbHom:
        if isinstance(coords, Element):
            coords = coords.coords
        flat = self.lattice * coords
        return FpAbHom(self.src, self.tgt, _unvec(flat, self.tgt.gens, self.src.gens),
                       check=False)

    def coords_of(self, h: FpAbHom) -> Element:
        if h.src != self.src or h.tgt != self.tgt:
            raise DimensionMismatch("hom endpoints do not match this hom-group")
        x = self._solver.solve(_vec(h.matrix))
        if x is None:
            raise ValueError("hom does not lie in the computed hom lattice")
        return Element(self.group, x)


def hom_group(a: FpAbGroup, b: FpAbGroup) -> HomGroup:
    """Hom(A, B) via one vectorized kernel problem.

    A hom matrix M must satisfy M * rel(A) = 0 modulo rel(B) columnwise
    (vec(M) in the kernel of precompose(rel(A), B) modulo rel(B)); two
    matrices are identified when they differ columnwise by rel(B).  Each
    lattice column satisfies the first, so basis homs are built unchecked.
    """
    ra, rb = a.relations, b.relations
    lattice = constrained_kernel(precompose(ra, b),
                                 block_diag(*[rb] * ra.cols))
    solver = ModSolver(lattice, block_diag(*[rb] * a.gens))
    group = FpAbGroup(lattice.cols, solver.kernel())
    return HomGroup(a, b, group, lattice, solver)


def apply_blockwise(vecs: IntMatrix, n: int, m: int,
                    left: Optional[IntMatrix] = None,
                    right: Optional[IntMatrix] = None) -> IntMatrix:
    """The columns vec(left·h·right) for the columns vec(h) of vecs, h
    n x m, a side None the identity: left multiplies each n-row block,
    right the blocks flattened one to a row; no Kronecker matrix."""
    k, rows = vecs.cols, vecs.data
    if left is not None:
        rows = tuple(chain.from_iterable((left * IntMatrix._wrap(
            n, k, rows[c * n:(c + 1) * n])).data for c in range(m)))
        n = left.rows
    if right is not None:
        flat = IntMatrix._wrap(m, n * k, tuple(tuple(
            chain.from_iterable(rows[c * n:(c + 1) * n])) for c in range(m)))
        m, rows = right.cols, tuple(r[i * k:(i + 1) * k]
                                    for r in (right.transpose() * flat).data
                                    for i in range(n))
    return IntMatrix._wrap(n * m, k, rows)


def induced_hom_group_map(src_hg: HomGroup, tgt_hg: HomGroup,
                          left: Optional[IntMatrix] = None,
                          right: Optional[IntMatrix] = None) -> FpAbHom:
    """h ↦ left·h·right (a side None the identity) on every lattice column
    at once: one solve with tgt_hg's solver and one reduction."""
    vecs = apply_blockwise(src_hg.lattice, src_hg.tgt.gens, src_hg.src.gens,
                           left, right)
    x = tgt_hg._solver.solve_matrix(vecs)
    if x is None:
        raise ValueError("image does not lie in the computed hom lattice")
    return FpAbHom(src_hg.group, tgt_hg.group, tgt_hg.group.reduce(x),
                   check=True)


def kernel(f: FpAbHom) -> Tuple[FpAbGroup, FpAbHom]:
    """Kernel subgroup with its inclusion.

    Generators are a basis of the preimage lattice {x : f(x) = 0 in tgt},
    so the kernel of a map between free groups is presented relation-free;
    relations are whatever basis combinations land in the source relations.
    The inclusion keeps the solver that found them; a zero source is its
    own kernel."""
    if not f.src.gens:
        return f.src, identity_hom(f.src)
    lattice = column_space_basis(f.solver.kernel())
    solver = ModSolver(lattice, f.src.relations)
    ker = FpAbGroup(lattice.cols, solver.kernel())
    incl = FpAbHom(ker, f.src, lattice, check=False)
    incl._solver = solver
    return ker, incl


def cokernel(f: FpAbHom) -> Tuple[FpAbGroup, FpAbHom]:
    """Target modulo the image, with the projection."""
    coker = FpAbGroup(f.tgt.gens, hstack(f.tgt.relations, f.matrix))
    proj = FpAbHom(f.tgt, coker, IntMatrix.identity(f.tgt.gens), check=False)
    return coker, proj


def is_epi(f: FpAbHom) -> bool:
    """f's solver has one pivot per target row, each 1."""
    return [p for _, p, _, _ in f.solver.pivots()] == [1] * f.tgt.gens


def is_mono(f: FpAbHom) -> bool:
    """Each generator of f's kernel lattice is zero in the source."""
    return f.src.solver.solve_matrix(f.solver.kernel()) is not None


def is_exact_at(f_in: FpAbHom, f_out: FpAbHom) -> bool:
    """im(f_in) = ker(f_out) inside their shared middle group: the
    composite is zero and each generator of ker(f_out) lies in im(f_in)."""
    if not compose(f_out, f_in).is_zero():
        return False
    return f_in.solver.solve_matrix(f_out.solver.kernel()) is not None


def lift_through_epi(p: FpAbHom, g: FpAbHom) -> FpAbHom:
    """h with p∘h = g for g out of a free group; NotEpi if g leaves im p."""
    if g.tgt != p.tgt:
        raise DimensionMismatch("lift endpoints do not match")
    if not g.src.is_free():
        raise NotFree("lift source must be free")
    h = p.solver.solve_matrix(g.matrix)
    if h is None:
        raise NotEpi("map does not reach a unit image")
    return FpAbHom(g.src, p.src, h, check=False)


def corestrict(f: FpAbHom, incl: FpAbHom) -> FpAbHom:
    """Factor f through the subgroup inclusion incl (im f must lie inside)."""
    if f.tgt != incl.tgt:
        raise DimensionMismatch("corestriction endpoints do not match")
    u = incl.solver.solve_matrix(f.matrix)
    if u is None:
        raise ValueError("image does not lie in the subgroup")
    return FpAbHom(f.src, incl.src, u, check=False)


class DirectSum:
    """Biproduct of two groups; unpacks as (group, in_a, in_b, pr_a, pr_b)."""

    __slots__ = ("group", "in_a", "in_b", "pr_a", "pr_b")

    def __init__(self, a: FpAbGroup, b: FpAbGroup):
        self.group = FpAbGroup(a.gens + b.gens, block_diag(a.relations, b.relations))
        self.in_a = FpAbHom(a, self.group,
                            vstack(IntMatrix.identity(a.gens),
                                   IntMatrix.zero(b.gens, a.gens)), check=False)
        self.in_b = FpAbHom(b, self.group,
                            vstack(IntMatrix.zero(a.gens, b.gens),
                                   IntMatrix.identity(b.gens)), check=False)
        self.pr_a = FpAbHom(self.group, a,
                            hstack(IntMatrix.identity(a.gens),
                                   IntMatrix.zero(a.gens, b.gens)), check=False)
        self.pr_b = FpAbHom(self.group, b,
                            hstack(IntMatrix.zero(b.gens, a.gens),
                                   IntMatrix.identity(b.gens)), check=False)

    def __iter__(self):
        return iter((self.group, self.in_a, self.in_b, self.pr_a, self.pr_b))


def direct_sum(a: FpAbGroup, b: FpAbGroup) -> DirectSum:
    return DirectSum(a, b)


def direct_sum_many(groups: Sequence[FpAbGroup]) -> Tuple[FpAbGroup, List[int]]:
    """Block direct sum; returns the group and generator offsets per summand.

    No injections or projections: at large summand counts they would dwarf
    the group itself.
    """
    offsets = []
    total = 0
    for g in groups:
        offsets.append(total)
        total += g.gens
    rel = block_diag(*(g.relations for g in groups))
    return FpAbGroup(total, rel), offsets


def _core_smith(core: Sequence[Tuple[int, int, dict]]):
    """(rows, d, dec): the Smith diagonal d of a peeled core on generators
    rows, by dec = snf, or with dec None for a diagonal core whose moduli,
    sorted, already divide one another."""
    if all(len(col) == 1 for _, _, col in core):
        core = sorted(core, key=lambda c: c[1])
        rows, d = [r for r, _, _ in core], [p for _, p, _ in core]
        if all(b % a == 0 for a, b in zip(d, d[1:])):
            return rows, d, None
    else:
        rows = sorted(set(chain.from_iterable(col for _, _, col in core)))
    at = {r: k for k, r in enumerate(rows)}
    dec = snf(_from_sparse_cols([{at[i]: x for i, x in col.items()}
                                 for _, _, col in core], len(rows)))
    return rows, dec.diagonal(), dec


def minimized(group: FpAbGroup) -> Tuple[FpAbGroup, FpAbHom, FpAbHom]:
    """(small, to_small, from_small): the group on its invariant factors
    (from_invariants), to_small ∘ from_small the identity and from_small ∘
    to_small the identity of the group, both built from sparse columns.
    The peel drops the unit-pivot generators, _core_smith runs a Smith form
    only where one is needed, and the other kept generators are free.
    Every H^n (resolution.cohomology_data) is presented so."""
    phi, core = group._peel()
    rows, d, dec = _core_smith(core)
    rows += sorted({i for i, v in enumerate(phi) if i in v}.difference(rows))
    keep = [j for j, x in enumerate(d) if x != 1] + list(range(len(d), len(rows)))
    n, moduli = len(keep), [d[j] for j in keep if j < len(d)]
    if exactint._meter is not None:
        exactint._charge(2 * n * group.gens)
    to_kept, from_cols = [{} for _ in phi], []  # small coordinates by kept row
    for s, j in enumerate(keep):
        if dec is not None and j < dec.U.rows:
            to_row, from_col = enumerate(dec.U.data[j]), enumerate(dec.u_inv.col(j))
        else:  # U is the identity on a diagonal core and on the free rows
            to_row = from_col = [(j, 1)]
        for k, x in to_row:
            to_kept[rows[k]][s] = x  # _combine drops what sums to zero
        from_cols.append({rows[k]: x for k, x in from_col if x})
    small = from_invariants(n - len(moduli), moduli)
    # diagonal relations with positive entries are their own echelon basis
    small._echelon = [(j, m, {j: m}) for j, m in enumerate(moduli)]
    small._canon = (n - len(moduli), tuple(moduli))
    to_small = _from_sparse_cols([exactint._combine(v, to_kept) for v in phi], n)
    return (small, FpAbHom(group, small, to_small, check=False),
            FpAbHom(small, group, _from_sparse_cols(from_cols, group.gens), check=False))
