"""Finitely presented abelian groups and their homomorphisms.

A group is Z^g modulo the column span of a relations matrix.  Everything
downstream (Ext groups, cohomology, presheaf stalks) is built from the
kernels, cokernels, hom-groups, and lifts implemented here.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from .exactint import (
    DimensionMismatch,
    IntMatrix,
    ModSolver,
    block_diag,
    column_space_basis,
    constrained_kernel,
    hstack,
    kron,
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
    """Normalize a multiset of cyclic orders into an invariant-factor chain."""
    vals = [m for m in moduli if m > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = math.gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        vals = [v for v in vals if v > 1]
    return tuple(sorted(vals))


class FpAbGroup:
    """Z^gens modulo the column span of `relations`.

    The canonical form (free rank, invariant factors each >= 2) classifies
    the group up to isomorphism.  It is computed lazily from the Smith form
    of the relations, with a fast path when the relations matrix is already
    monomial (at most one nonzero per row and per column), which covers the
    presentations produced by direct sums of cyclic groups.
    """

    __slots__ = ("gens", "relations", "_snf", "_canon", "_row_moduli")

    def __init__(self, gens: int, relations: Optional[IntMatrix] = None):
        if relations is None:
            relations = IntMatrix.zero(gens, 0)
        if relations.rows != gens:
            raise DimensionMismatch(
                f"relations have {relations.rows} rows, group has {gens} generators")
        self.gens = gens
        self.relations = relations
        self._snf = None
        self._canon = None
        self._row_moduli = self._monomial_moduli()

    def _monomial_moduli(self):
        """Row -> modulus map when relations are monomial, else None."""
        rel = self.relations
        if rel.cols == 0:
            return {}
        row_seen = [False] * rel.rows
        moduli = {}
        for j in range(rel.cols):
            nz = None
            for i in range(rel.rows):
                x = rel.data[i][j]
                if x:
                    if nz is not None:
                        return None
                    nz = (i, x)
            if nz is None:
                continue
            i, x = nz
            if row_seen[i]:
                return None
            row_seen[i] = True
            moduli[i] = abs(x)
        return moduli

    def _snf_data(self):
        if self._snf is None:
            self._snf = snf(self.relations)
        return self._snf

    @property
    def canonical_form(self) -> Tuple[int, Tuple[int, ...]]:
        """(free rank, invariant factors) classifying the group up to iso."""
        if self._canon is None:
            if self._row_moduli is not None:
                nonzero = [m for m in self._row_moduli.values() if m]
                rank = self.gens - len(nonzero)
                self._canon = (rank, _invariant_chain(nonzero))
            else:
                dec = self._snf_data()
                diag = dec.diagonal()
                nonzero = [d for d in diag if d]
                self._canon = (self.gens - len(nonzero),
                               tuple(d for d in nonzero if d > 1))
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

    def reduce(self, coords: IntMatrix) -> IntMatrix:
        """Canonical representative of the coset coords + colspan(relations)."""
        if coords.rows != self.gens or coords.cols != 1:
            raise DimensionMismatch("coordinate column has wrong shape")
        if self._row_moduli is not None:
            out = []
            for i in range(self.gens):
                m = self._row_moduli.get(i, 0)
                x = coords.data[i][0]
                out.append(x % m if m else x)
            return IntMatrix._wrap(self.gens, 1, tuple((x,) for x in out))
        dec = self._snf_data()
        y = [row[0] for row in (dec.U * coords).data]
        diag = dec.diagonal()
        for i, d in enumerate(diag):
            if d:
                y[i] %= d
        return dec.u_inv * IntMatrix._wrap(len(y), 1, tuple((x,) for x in y))

    def contains_zero(self, coords: IntMatrix) -> bool:
        return self.reduce(coords).is_zero()

    def element(self, coords: Sequence[int] | IntMatrix) -> "Element":
        if not isinstance(coords, IntMatrix):
            coords = IntMatrix.column(list(coords))
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, IntMatrix.zero(self.gens, 1))

    def elements(self) -> Iterable["Element"]:
        """All elements of a finite group, in a deterministic order."""
        if self.order() is None:
            raise ValueError("cannot enumerate an infinite group")
        if self._row_moduli is not None:
            ranges = [self._row_moduli.get(i, 1) for i in range(self.gens)]
            # every row must carry a modulus or the group would be infinite
            coords = [0] * self.gens
            while True:
                yield Element(self, IntMatrix.column(coords))
                for i in range(self.gens - 1, -1, -1):
                    coords[i] += 1
                    if coords[i] < ranges[i]:
                        break
                    coords[i] = 0
                else:
                    return
        else:
            dec = self._snf_data()
            diag = dec.diagonal()
            ranges = [d if d > 1 else 1 for d in diag] + [1] * (self.gens - len(diag))
            y = [0] * self.gens
            while True:
                yield Element(self, dec.u_inv * IntMatrix.column(y))
                for i in range(self.gens - 1, -1, -1):
                    y[i] += 1
                    if y[i] < ranges[i]:
                        break
                    y[i] = 0
                else:
                    return

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
    """Direct sum of rank_ copies of Z and cyclic groups of the given orders."""
    g = rank_ + len(factors)
    cols = []
    for i, d in enumerate(factors):
        col = [0] * g
        col[i] = d
        cols.append(col)
    return FpAbGroup(g, IntMatrix.from_cols(cols, rows=g))


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

    __slots__ = ("src", "tgt", "matrix")

    def __init__(self, src: FpAbGroup, tgt: FpAbGroup, matrix: IntMatrix,
                 check: bool = True):
        if matrix.rows != tgt.gens or matrix.cols != src.gens:
            raise DimensionMismatch(
                f"hom matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{tgt.gens}x{src.gens}")
        if check and src.relations.cols and not src.relations.is_zero():
            image = matrix * src.relations
            for j in range(image.cols):
                if not tgt.contains_zero(image.column_matrix(j)):
                    raise IllDefined(
                        f"relation column {j} maps outside the target relations")
        self.src = src
        self.tgt = tgt
        self.matrix = matrix

    def __call__(self, x: Element) -> Element:
        if x.group != self.src:
            raise DimensionMismatch("element is not in the source group")
        return Element(self.tgt, self.matrix * x.coords)

    def reduced_matrix(self) -> IntMatrix:
        moduli = self.tgt._row_moduli
        if moduli is not None:
            # monomial relations: reduce entrywise, as reduce does per column
            data = tuple(tuple(x % moduli[i] for x in row)
                         if moduli.get(i) else row
                         for i, row in enumerate(self.matrix.data))
            return IntMatrix._wrap(self.matrix.rows, self.matrix.cols, data)
        cols = [self.tgt.reduce(self.matrix.column_matrix(j)).col(0)
                for j in range(self.matrix.cols)]
        return IntMatrix.from_cols(cols, rows=self.tgt.gens)

    def is_zero(self) -> bool:
        return all(self.tgt.contains_zero(self.matrix.column_matrix(j))
                   for j in range(self.matrix.cols))

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

    def __sub__(self, other: "FpAbHom") -> "FpAbHom":
        if self.src != other.src or self.tgt != other.tgt:
            raise DimensionMismatch("hom subtraction endpoint mismatch")
        return FpAbHom(self.src, self.tgt, self.matrix - other.matrix, check=False)

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


class HomGroup:
    """Hom(A, B) as a presented group plus homs realizing its generators.

    Unpacks as (group, basis).  coords_of inverts the generator map: it
    finds the coordinates of any given hom, which is how induced maps
    between hom-groups are assembled.
    """

    def __init__(self, src: FpAbGroup, tgt: FpAbGroup, group: FpAbGroup,
                 basis: List[FpAbHom], lattice: IntMatrix, equiv: IntMatrix):
        self.src = src
        self.tgt = tgt
        self.group = group
        self.basis = basis
        self._lattice = lattice
        self._equiv = equiv
        self._solver = None

    def __iter__(self):
        return iter((self.group, self.basis))

    def hom_of(self, coords: Element | IntMatrix) -> FpAbHom:
        if isinstance(coords, Element):
            coords = coords.coords
        flat = self._lattice * coords
        return FpAbHom(self.src, self.tgt, _unvec(flat, self.tgt.gens, self.src.gens),
                       check=False)

    def coords_of(self, h: FpAbHom) -> Element:
        if h.src != self.src or h.tgt != self.tgt:
            raise DimensionMismatch("hom endpoints do not match this hom-group")
        if self._solver is None:
            self._solver = ModSolver(self._lattice, self._equiv)
        x = self._solver.solve(_vec(h.matrix))
        if x is None:
            raise ValueError("hom does not lie in the computed hom lattice")
        return Element(self.group, x)


def hom_group(a: FpAbGroup, b: FpAbGroup) -> HomGroup:
    """Hom(A, B) via one vectorized kernel problem.

    A hom matrix M must satisfy M * rel(A) = 0 modulo rel(B) columnwise;
    two matrices are identified when they differ columnwise by rel(B).
    Both conditions are linear in vec(M).  Each lattice column satisfies
    the first by construction, so the basis homs are built unchecked.
    """
    n, m = b.gens, a.gens
    ra, rb = a.relations, b.relations
    constraint = kron(ra.transpose(), IntMatrix.identity(n))
    modulus = block_diag(*([rb] * ra.cols)) if ra.cols else IntMatrix.zero(0, 0)
    lattice = constrained_kernel(constraint, modulus)
    equiv = block_diag(*([rb] * m)) if m else IntMatrix.zero(0, 0)
    relations = constrained_kernel(lattice, equiv)
    group = FpAbGroup(lattice.cols, relations)
    basis = [FpAbHom(a, b, _unvec(lattice.column_matrix(j), n, m), check=False)
             for j in range(lattice.cols)]
    return HomGroup(a, b, group, basis, lattice, equiv)


def induced_hom_group_map(src_hg: HomGroup, tgt_hg: HomGroup, transform) -> FpAbHom:
    """Map between computed hom-groups obtained by transforming basis homs."""
    cols = [tgt_hg.coords_of(transform(h)).coords.col(0) for h in src_hg.basis]
    return FpAbHom(src_hg.group, tgt_hg.group,
                   IntMatrix.from_cols(cols, rows=tgt_hg.group.gens), check=True)


def kernel(f: FpAbHom) -> Tuple[FpAbGroup, FpAbHom]:
    """Kernel subgroup with its inclusion.

    Generators are a basis of the preimage lattice {x : f(x) = 0 in tgt},
    so the kernel of a map between free groups is presented relation-free;
    relations are whatever basis combinations land in the source relations.
    """
    lattice = column_space_basis(constrained_kernel(f.matrix, f.tgt.relations))
    relations = constrained_kernel(lattice, f.src.relations)
    ker = FpAbGroup(lattice.cols, relations)
    incl = FpAbHom(ker, f.src, lattice, check=False)
    return ker, incl


def cokernel(f: FpAbHom) -> Tuple[FpAbGroup, FpAbHom]:
    """Target modulo the image, with the projection."""
    coker = FpAbGroup(f.tgt.gens, hstack(f.tgt.relations, f.matrix))
    proj = FpAbHom(f.tgt, coker, IntMatrix.identity(f.tgt.gens), check=False)
    return coker, proj


def is_epi(f: FpAbHom) -> bool:
    return cokernel(f)[0].is_trivial()


def is_mono(f: FpAbHom) -> bool:
    return kernel(f)[0].is_trivial()


def lift_through_epi(p: FpAbHom, g: FpAbHom) -> FpAbHom:
    """h with p∘h = g for g out of a free group; NotEpi if g leaves im p."""
    if g.tgt != p.tgt:
        raise DimensionMismatch("lift endpoints do not match")
    if not g.src.is_free():
        raise NotFree("lift source must be free")
    h = ModSolver(p.matrix, p.tgt.relations).solve_matrix(g.matrix)
    if h is None:
        raise NotEpi("map does not reach a unit image")
    return FpAbHom(g.src, p.src, h, check=False)


def corestrict(f: FpAbHom, incl: FpAbHom) -> FpAbHom:
    """Factor f through the subgroup inclusion incl (im f must lie inside)."""
    if f.tgt != incl.tgt:
        raise DimensionMismatch("corestriction endpoints do not match")
    u = ModSolver(incl.matrix, incl.tgt.relations).solve_matrix(f.matrix)
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

    Injections and projections for the summands are intentionally not
    materialized here; at large summand counts they would dwarf the group
    itself.  Use summand_injection / summand_projection when needed.
    """
    offsets = []
    total = 0
    for g in groups:
        offsets.append(total)
        total += g.gens
    rel = block_diag(*(g.relations for g in groups)) if groups else IntMatrix.zero(0, 0)
    return FpAbGroup(total, rel), offsets


def summand_injection(total: FpAbGroup, groups: Sequence[FpAbGroup],
                      offsets: Sequence[int], i: int) -> FpAbHom:
    g = groups[i]
    rows = []
    for k in range(total.gens):
        row = [0] * g.gens
        if offsets[i] <= k < offsets[i] + g.gens:
            row[k - offsets[i]] = 1
        rows.append(tuple(row))
    return FpAbHom(g, total, IntMatrix._wrap(total.gens, g.gens, tuple(rows)), check=False)


def summand_projection(total: FpAbGroup, groups: Sequence[FpAbGroup],
                       offsets: Sequence[int], i: int) -> FpAbHom:
    g = groups[i]
    rows = []
    for k in range(g.gens):
        row = [0] * total.gens
        row[offsets[i] + k] = 1
        rows.append(tuple(row))
    return FpAbHom(total, g, IntMatrix._wrap(g.gens, total.gens, tuple(rows)), check=False)


def minimized(group: FpAbGroup) -> Tuple[FpAbGroup, FpAbHom, FpAbHom]:
    """Isomorphic group on rank + torsion-factor generators.

    Returns (small, to_small, from_small) with to_small ∘ from_small the
    identity on the small group and from_small ∘ to_small equal to the
    identity of the original group.  The torsion generators come first,
    with monomial relations Z/d for the invariant factors d; the group's
    own cached Smith form supplies the change of basis, so computing its
    canonical form as well costs no second elimination.  Cohomology
    (resolution.cohomology_data) presents every H^n this way.
    """
    dec = group._snf_data()
    diag = dec.diagonal()
    keep = [i for i, d in enumerate(diag) if d != 1]
    keep += list(range(len(diag), group.gens))
    moduli = [diag[i] if i < len(diag) else 0 for i in keep]
    torsion = [i for i, m in enumerate(moduli) if m]
    order = sorted(range(len(keep)), key=lambda i: (0 if moduli[i] else 1, i))
    keep = [keep[i] for i in order]
    moduli = [moduli[i] for i in order]
    cols = []
    for j, m in enumerate(moduli):
        if m:
            col = [0] * len(keep)
            col[j] = m
            cols.append(col)
    small = FpAbGroup(len(keep), IntMatrix.from_cols(cols, rows=len(keep)))
    to_small = FpAbHom(group, small, dec.U.take_rows(keep), check=False)
    from_small = FpAbHom(small, group, dec.u_inv.take_cols(keep), check=False)
    return small, to_small, from_small
