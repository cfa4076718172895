"""Free resolutions, Hom complexes, and cohomology over a module context.

A module context packages what a concrete module category must provide for
resolution-based computations: free objects, epi covers, kernels, lifts,
and hom-groups out of frees as presented abelian groups.  The same engine
then serves plain abelian groups, modules over a finite group ring, and
abelian presheaves on a finite poset.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .exactint import (
    DimensionMismatch,
    IntMatrix,
    ModSolver,
    constrained_kernel,
    hstack,
)
from . import fpab
from .fpab import Element, FpAbGroup, FpAbHom, NotFree, free_abelian, make_group


class ModuleContext:
    """Capability contract for a module category with enough frees.

    Free objects are the resolution bricks; the one semantic requirement is
    that homs out of a free object can always be lifted through epis built
    inside the context, which is what epi_cover plus lift_through witness.
    A hom out of a free is fixed by where it sends the basis units, so
    every context presents Hom(F, A) as one FreeHomGroup over the unit
    stalks and rebuilds homs from unit images with extend_units.
    Contexts compare equal when they describe the same category; the
    default is type identity, refined by parameterized subclasses.
    """

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def free_rank(self, f) -> int:
        raise NotImplementedError

    def epi_cover(self, b):
        """(F, p) with F free and p : F -> B epi, deterministically chosen."""
        raise NotImplementedError

    def kernel(self, f):
        """(K, incl) with incl mono.  K's structure maps are corestrictions
        along incl, so its laws hold as in f's source and go unchecked."""
        raise NotImplementedError

    def compose(self, f, g):
        raise NotImplementedError

    def identity(self, obj):
        raise NotImplementedError

    def is_zero_hom(self, f) -> bool:
        raise NotImplementedError

    def is_epi(self, f) -> bool:
        raise NotImplementedError

    def corestrict(self, f, incl):
        raise NotImplementedError

    def lift_through(self, p, g):
        """h with p∘h = g for g out of a free object, solved at its units;
        p need not be epi, and NotEpi means g leaves im(p)."""
        raise NotImplementedError

    def hom_group(self, f, a) -> "FreeHomGroup":
        """Hom(F, A) for free F; raises fpab.NotFree for any other source."""
        raise NotImplementedError

    def extend_units(self, free, a, units: Sequence[IntMatrix]):
        """The hom F -> A sending the i-th basis unit of F to units[i].

        units[i] is a coordinate column in the i-th unit stalk of
        hom_group(free, a).
        """
        raise NotImplementedError

    def induced_precompose(self, hg_src: "FreeHomGroup",
                           hg_tgt: "FreeHomGroup", d) -> FpAbHom:
        """Hom(F, A) -> Hom(F', A) induced by d : F' -> F.

        Assembled by unit_block_matrix: block (t, i) says how the t-th
        unit image of a precomposite reads off the i-th unit image of
        the input.
        """
        raise NotImplementedError


class FreeHomGroup:
    """Hom(F, A) for a free F, presented by evaluation at the basis units.

    stalks[i] is the group the i-th unit of F may land in: A over Z, the
    underlying group of A over ZG, A(l_i) for a representable ZY(l_i).
    The group is their direct sum, and offsets[i] is where the i-th unit
    image starts in its coordinates.
    """

    __slots__ = ("ctx", "free", "module", "stalks", "group", "offsets")

    def __init__(self, ctx: ModuleContext, free, module,
                 stalks: Sequence[FpAbGroup]):
        self.ctx = ctx
        self.free = free
        self.module = module
        self.stalks = list(stalks)
        self.group, self.offsets = fpab.direct_sum_many(self.stalks)

    def hom_of(self, coords: Element | IntMatrix):
        """The actual map F -> A with the given unit images."""
        if isinstance(coords, Element):
            coords = coords.coords
        col = coords.col(0)
        units = [IntMatrix.column(col[off:off + s.gens])
                 for s, off in zip(self.stalks, self.offsets)]
        return self.ctx.extend_units(self.free, self.module, units)


def unit_block_matrix(src_stalks: Sequence[FpAbGroup],
                      tgt_stalks: Sequence[FpAbGroup], terms) -> IntMatrix:
    """Block matrix summing c * m into block (t, i) over terms (t, i, c, m).

    Rows are blocked by tgt_stalks and columns by src_stalks; m must be
    tgt_stalks[t].gens x src_stalks[i].gens.  This is the one assembly
    routine behind every precomposition matrix, and on the group-ring
    hot path, so it accumulates into plain row lists.
    """
    col_offs, width = [], 0
    for s in src_stalks:
        col_offs.append(width)
        width += s.gens
    row_offs, height = [], 0
    for s in tgt_stalks:
        row_offs.append(height)
        height += s.gens
    rows = [[0] * width for _ in range(height)]
    for (t, i, c, m) in terms:
        roff, coff = row_offs[t], col_offs[i]
        for u, mrow in enumerate(m.data):
            row = rows[roff + u]
            for v, x in enumerate(mrow):
                if x:
                    row[coff + v] += c * x
    return IntMatrix._wrap(height, width, tuple(tuple(r) for r in rows))


class FreeResolution:
    """... -> P_2 -> P_1 -> P_0 -> B, free objects over a context.

    diffs[k] is d_{k+1} : P_{k+1} -> P_k.
    """

    def __init__(self, ctx: ModuleContext, target, frees: Sequence,
                 diffs: Sequence, augmentation, dd_verified: bool = False):
        self.ctx = ctx
        self.target = target
        self.frees = list(frees)
        self.diffs = list(diffs)
        self.augmentation = augmentation
        self.dd_verified = dd_verified

    @property
    def max_deg(self) -> int:
        return len(self.frees) - 1

    def free(self, n: int):
        return self.frees[n]

    def diff(self, n: int):
        """d_n : P_n -> P_{n-1}, defined for 1 <= n <= max_deg."""
        return self.diffs[n - 1]

    def verify_dd(self) -> None:
        if self.dd_verified:
            return
        for k in range(len(self.diffs) - 1):
            if not self.ctx.is_zero_hom(self.ctx.compose(self.diffs[k],
                                                         self.diffs[k + 1])):
                raise RuntimeError(f"d∘d is nonzero between degrees "
                                   f"{k + 2} and {k}")
        self.dd_verified = True

    def validate(self, up_to: Optional[int] = None) -> None:
        """Check d∘d = 0 and exactness at every internal degree."""
        ctx = self.ctx
        self.verify_dd()
        top = self.max_deg if up_to is None else up_to
        if not ctx.is_epi(self.augmentation):
            raise RuntimeError("augmentation is not epi")
        for n in range(1, top + 1):
            below = self.augmentation if n == 1 else self.diff(n - 1)
            _, i_n = ctx.kernel(below)
            if not ctx.is_epi(ctx.corestrict(self.diff(n), i_n)):
                raise RuntimeError(f"resolution is not exact at degree {n - 1}")


def free_resolution(ctx: ModuleContext, b, max_deg: int) -> FreeResolution:
    """Iterated cover-the-kernel construction, exact by construction."""
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    p0_free, aug = ctx.epi_cover(b)
    frees = [p0_free]
    diffs = []
    prev_epi = aug
    for n in range(1, max_deg + 1):
        b_n, i_n = ctx.kernel(prev_epi)
        f_n, p_n = ctx.epi_cover(b_n)
        frees.append(f_n)
        diffs.append(ctx.compose(i_n, p_n))
        prev_epi = p_n
    return FreeResolution(ctx, b, frees, diffs, aug, dd_verified=True)


class FpAbComplex:
    """Cochain complex of presented groups, maps raising degree by one."""

    def __init__(self, groups: Sequence[FpAbGroup], maps: Sequence[FpAbHom],
                 verified: bool = False):
        if len(maps) != max(len(groups) - 1, 0):
            raise DimensionMismatch("need exactly one map per adjacent pair")
        for n, m in enumerate(maps):
            if m.src != groups[n] or m.tgt != groups[n + 1]:
                raise DimensionMismatch(f"map {n} endpoints do not match")
        if not verified:
            for n in range(len(maps) - 1):
                if not fpab.compose(maps[n + 1], maps[n]).is_zero():
                    raise ValueError(f"composite of maps {n} and {n + 1} "
                                     "is nonzero")
        self.groups = list(groups)
        self.maps = list(maps)

    def top_degree(self) -> int:
        return len(self.groups) - 1


def zero_complex(length: int) -> FpAbComplex:
    zero = make_group(0, IntMatrix.zero(0, 0))
    return FpAbComplex([zero] * (length + 1),
                       [fpab.zero_hom(zero, zero)] * length, verified=True)


class CohomologyData:
    """H^n of a complex with enough data to map cocycles to coordinates.

    The group is presented on its invariant factors (fpab.minimized), and
    lattice columns are cocycle representatives of its generators in C^n
    generator coordinates.  coords_of solves against a basis of the
    cocycles {x : d(x) = 0 in C^{n+1}} modulo coboundaries and C^n
    relations, then maps the solution onto those generators.
    """

    def __init__(self, group: FpAbGroup, lattice: IntMatrix,
                 cocycles: IntMatrix, boundary: IntMatrix,
                 to_group: IntMatrix):
        self.group = group
        self.lattice = lattice
        self._cocycles = cocycles
        self._boundary = boundary
        self._to_group = to_group
        self._solver = None

    def coords_of(self, cocycle: IntMatrix) -> fpab.Element:
        """Class of a cocycle given in C^n generator coordinates."""
        if self._solver is None:
            self._solver = ModSolver(self._cocycles, self._boundary)
        x = self._solver.solve(cocycle)
        if x is None:
            raise ValueError("column is not a cocycle for this complex degree")
        return fpab.Element(self.group, self._to_group * x)


def cohomology_data(c: FpAbComplex, n: int) -> CohomologyData:
    if n < 0 or n > c.top_degree():
        raise ValueError(f"degree {n} outside complex range 0..{c.top_degree()}")
    group_n = c.groups[n]
    if n < len(c.maps):
        out = c.maps[n]
        cocycles = constrained_kernel(out.matrix, out.tgt.relations)
    else:
        cocycles = IntMatrix.identity(group_n.gens)
    incoming = (c.maps[n - 1].matrix if n >= 1
                else IntMatrix.zero(group_n.gens, 0))
    boundary = hstack(group_n.relations, incoming)
    relations = constrained_kernel(cocycles, boundary)
    small, to_small, from_small = fpab.minimized(
        make_group(cocycles.cols, relations))
    return CohomologyData(small, cocycles * from_small.matrix, cocycles,
                          boundary, to_small.matrix)


def cohomology(c: FpAbComplex, n: int) -> FpAbGroup:
    """ker(dⁿ)/im(dⁿ⁻¹); degree 0 takes the incoming map to be zero."""
    return cohomology_data(c, n).group


def hom_complex(p: FreeResolution, a) -> FpAbComplex:
    """Apply Hom(−, A) degreewise to a free resolution.

    The composite-zero property is checked once on the resolution itself
    (free-object level, where maps are small), not on the induced
    presented-group matrices, which can be large.
    """
    ctx = p.ctx
    p.verify_dd()
    hgs = [ctx.hom_group(p.free(n), a) for n in range(p.max_deg + 1)]
    maps = [ctx.induced_precompose(hgs[n], hgs[n + 1], p.diff(n + 1))
            for n in range(p.max_deg)]
    return FpAbComplex([hg.group for hg in hgs], maps, verified=True)


def ext_n(ctx: ModuleContext, b, a, n: int) -> FpAbGroup:
    """Ext^n(B, A) over the context, via a free resolution of B."""
    if n < 0:
        raise ValueError("Ext degree must be nonnegative")
    res = free_resolution(ctx, b, n + 1)
    return cohomology(hom_complex(res, a), n)


def lift_chain_map(p: FreeResolution, q: FreeResolution, f) -> List:
    """Chain map over f : target(P) -> target(Q), degree by degree.

    Comparison theorem: lift the augmentation square, then each t∘d_n
    through Q's d_n itself, whose image is ker(d_{n-1}) when Q is exact.
    Any chain map over f induces the same map on Ext, so any lift does.
    """
    if p.ctx != q.ctx:
        raise ValueError("resolutions live in different contexts")
    ctx = p.ctx
    depth = min(p.max_deg, q.max_deg)
    chain = [ctx.lift_through(q.augmentation,
                              ctx.compose(f, p.augmentation))]
    for n in range(1, depth + 1):
        psi = ctx.compose(chain[n - 1], p.diff(n))
        try:
            chain.append(ctx.lift_through(q.diff(n), psi))
        except fpab.NotEpi as exc:
            raise RuntimeError(f"comparison lift failed at degree {n}: "
                               f"{exc}") from exc
    return chain


class ZContext(ModuleContext):
    """Finitely presented abelian groups as the base module category."""

    def free_rank(self, f: FpAbGroup) -> int:
        return f.gens

    def epi_cover(self, b: FpAbGroup):
        cover = free_abelian(b.gens)
        return cover, FpAbHom(cover, b, IntMatrix.identity(b.gens), check=False)

    def kernel(self, f: FpAbHom):
        return fpab.kernel(f)

    def compose(self, f: FpAbHom, g: FpAbHom) -> FpAbHom:
        return fpab.compose(f, g)

    def identity(self, obj: FpAbGroup) -> FpAbHom:
        return fpab.identity_hom(obj)

    def is_zero_hom(self, f: FpAbHom) -> bool:
        return f.is_zero()

    def is_epi(self, f: FpAbHom) -> bool:
        return fpab.is_epi(f)

    def corestrict(self, f: FpAbHom, incl: FpAbHom) -> FpAbHom:
        return fpab.corestrict(f, incl)

    def lift_through(self, p: FpAbHom, g: FpAbHom) -> FpAbHom:
        return fpab.lift_through_epi(p, g)

    def hom_group(self, f: FpAbGroup, a: FpAbGroup) -> FreeHomGroup:
        if not f.is_free():
            raise NotFree("hom_group source must be free")
        return FreeHomGroup(self, f, a, [a] * f.gens)

    def extend_units(self, free: FpAbGroup, a: FpAbGroup,
                     units: Sequence[IntMatrix]) -> FpAbHom:
        return FpAbHom(free, a, IntMatrix.from_cols([u.col(0) for u in units],
                                                    rows=a.gens), check=False)

    def induced_precompose(self, hg_src: FreeHomGroup, hg_tgt: FreeHomGroup,
                           d: FpAbHom) -> FpAbHom:
        # the t-th unit of F' goes to sum_i d[i][t] e_i
        ident = IntMatrix.identity(hg_src.module.gens)
        terms = ((t, i, c, ident) for i, row in enumerate(d.matrix.data)
                 for t, c in enumerate(row) if c)
        m = unit_block_matrix(hg_src.stalks, hg_tgt.stalks, terms)
        return FpAbHom(hg_src.group, hg_tgt.group, m, check=False)


def z_context() -> ZContext:
    return ZContext()
