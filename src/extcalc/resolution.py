"""Free resolutions, Hom complexes, and cohomology over a module context.

A module context packages what a concrete module category must provide for
resolution-based computations: free objects, epi and kernel covers, lifts,
hom-groups out of frees as presented abelian groups, and underlying maps.
The same engine serves abelian groups, modules over a finite group ring and
presheaves on a finite poset, and cohomology_table reads a degree table off
one resolution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    Resolutions grow by one cover_kernel step per degree.
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

    def cover_kernel(self, p):
        """None at a zero kernel, else (F, d, q): d : F -> src(p) onto
        ker p, and q what the next step reads."""
        raise NotImplementedError

    def compose(self, f, g):
        raise NotImplementedError

    def identity(self, obj):
        raise NotImplementedError

    def is_zero_hom(self, f) -> bool:
        raise NotImplementedError

    def underlying(self, f) -> Sequence[FpAbHom]:
        """f's underlying abelian maps, stalk by stalk; exactness reads them."""
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

        Assembled by fpab.unit_block_matrix (fpab.precompose over Z):
        block (t, i) says how the t-th unit image of a precomposite reads
        off the i-th unit image of the input.
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


class FreeResolution:
    """... -> P_2 -> P_1 -> P_0 -> B, free objects over a context.

    diffs[k] is d_{k+1} : P_{k+1} -> P_k.  A complete resolution ends at a
    zero kernel, so max_deg is its length; else it is truncated there.
    """

    def __init__(self, ctx: ModuleContext, target, frees: Sequence,
                 diffs: Sequence, augmentation, dd_verified: bool = False,
                 complete: bool = False):
        self.ctx = ctx
        self.target = target
        self.frees = list(frees)
        self.diffs = list(diffs)
        self.augmentation = augmentation
        self.dd_verified = dd_verified
        self.complete = complete

    @property
    def max_deg(self) -> int:
        return len(self.frees) - 1

    def free(self, n: int):
        if n < 0:
            raise IndexError(f"no free term in degree {n}")
        return self.frees[n]

    def diff(self, n: int):
        """d_n : P_n -> P_{n-1}, defined for 1 <= n <= max_deg."""
        if n < 1:
            raise IndexError(f"no differential in degree {n}")
        return self.diffs[n - 1]

    def verify_dd(self) -> None:
        """Check d∘d = 0 even when marked dd_verified, then mark it."""
        for k in range(len(self.diffs) - 1):
            if not self.ctx.is_zero_hom(self.ctx.compose(self.diffs[k],
                                                         self.diffs[k + 1])):
                raise RuntimeError(f"d∘d is nonzero between degrees "
                                   f"{k + 2} and {k}")
        self.dd_verified = True

    def validate(self) -> None:
        """Check d∘d = 0, then exactness on the underlying abelian maps."""
        self.verify_dd()
        maps = list(map(self.ctx.underlying, [self.augmentation, *self.diffs]))
        if not all(map(fpab.is_epi, maps[0])):
            raise RuntimeError("augmentation is not epi")
        for n in range(1, len(maps)):
            if not all(map(fpab.is_exact_at, maps[n], maps[n - 1])):
                raise RuntimeError(f"resolution is not exact at degree {n - 1}")


def free_resolution(ctx: ModuleContext, b, max_deg: int) -> FreeResolution:
    """One cover_kernel step per degree: exact by construction, complete
    at the first zero kernel and otherwise cut at max_deg."""
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    p0_free, aug = ctx.epi_cover(b)
    steps = [(p0_free, None, aug)]
    while len(steps) <= max_deg and (step := ctx.cover_kernel(steps[-1][2])):
        steps.append(step)
    return FreeResolution(ctx, b, [f for (f, _, _) in steps],
                          [d for (_, d, _) in steps[1:]], aug,
                          dd_verified=True, complete=len(steps) <= max_deg)


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
    relations, with the solver whose kernel presented the group, then
    maps the solution onto its generators.  At the complex's top degree
    every cochain is a cocycle and its own solution, and solver is None.
    """

    def __init__(self, group: FpAbGroup, lattice: IntMatrix,
                 solver: Optional[ModSolver], to_group: IntMatrix):
        self.group = group
        self.lattice = lattice
        self._solver = solver
        self._to_group = to_group

    def coords_of(self, cocycle: IntMatrix) -> fpab.Element:
        """Class of a cocycle given in C^n generator coordinates."""
        if cocycle.cols != 1:
            raise DimensionMismatch("a cocycle is one column")
        return fpab.Element(self.group, self.classes_of(cocycle))

    def classes_of(self, cocycles: IntMatrix) -> IntMatrix:
        """Reduced class coordinates of every column of cocycles."""
        x = (cocycles if self._solver is None
             else self._solver.solve_matrix(cocycles))
        if x is None:
            raise ValueError("column is not a cocycle for this complex degree")
        return self.group.reduce(self._to_group * x)


def cohomology_data(c: FpAbComplex, n: int) -> CohomologyData:
    if n < 0 or n > c.top_degree():
        raise ValueError(f"degree {n} outside complex range 0..{c.top_degree()}")
    group_n = c.groups[n]
    incoming = (c.maps[n - 1].matrix if n >= 1
                else IntMatrix.zero(group_n.gens, 0))
    rel = hstack(group_n.relations, incoming)
    if n < len(c.maps):
        out = c.maps[n]
        cocycles = constrained_kernel(out.matrix, out.tgt.relations)
        solver = ModSolver(cocycles, rel)
        small, to_small, from_small = fpab.minimized(
            make_group(cocycles.cols, solver.kernel()))
        return CohomologyData(small, cocycles * from_small.matrix, solver,
                              to_small.matrix)
    # all of C^n; [I | rel] would give -rel, whose echelon basis is rel's
    small, to_small, from_small = fpab.minimized(make_group(group_n.gens, rel))
    return CohomologyData(small, from_small.matrix, None, to_small.matrix)


def cohomology(c: FpAbComplex, n: int) -> FpAbGroup:
    """ker(dⁿ)/im(dⁿ⁻¹); degree 0 takes the incoming map to be zero."""
    return cohomology_data(c, n).group


def hom_complex(p: FreeResolution, a, first: int = 0) -> FpAbComplex:
    """Apply Hom(−, A) degreewise to a free resolution, from P_first up:
    degree k of the complex is Hom(P_{first+k}, A).

    The composite-zero property is checked once on the resolution itself
    (free-object level, where maps are small), not on the induced
    presented-group matrices, which can be large.
    """
    ctx = p.ctx
    if not p.dd_verified:
        p.verify_dd()
    hgs = [ctx.hom_group(p.free(n), a) for n in range(first, p.max_deg + 1)]
    maps = [ctx.induced_precompose(hgs[k], hgs[k + 1], p.diff(first + k + 1))
            for k in range(len(hgs) - 1)]
    return FpAbComplex([hg.group for hg in hgs], maps, verified=True)


def cohomology_table(p: FreeResolution, a,
                     degrees: Sequence[int]) -> Dict[int, CohomologyData]:
    """cohomology_data of Hom(P, A) in each listed degree, built from one
    below the lowest: Ext^n(target(P), A) for n below p.max_deg, and for
    every n when P is complete (zero past it), so a degree table is read
    off one resolution to its top + 1.  Past a truncated P it raises."""
    low = [n for n in degrees if n <= p.max_deg]
    if len(low) < len(degrees) and not p.complete:
        raise ValueError(f"degree {max(degrees)} is past depth {p.max_deg}")
    first = max(min(low) - 1, 0) if low else 0
    cx = hom_complex(p, a, first) if low else None
    return {n: cohomology_data(cx, n - first) if n <= p.max_deg
            else cohomology_data(zero_complex(0), 0) for n in degrees}


def ext_table(ctx: ModuleContext, b, a,
              degrees: Sequence[int]) -> Dict[int, CohomologyData]:
    """Ext^n(B, A) data for each listed n, from one free resolution of B."""
    if min(degrees) < 0:
        raise ValueError("Ext degree must be nonnegative")
    return cohomology_table(free_resolution(ctx, b, max(degrees) + 1), a,
                            degrees)


def ext_n(ctx: ModuleContext, b, a, n: int) -> FpAbGroup:
    """Ext^n(B, A) over the context, via a free resolution of B."""
    return ext_table(ctx, b, a, [n])[n].group


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

    def cover_kernel(self, p: FpAbHom):
        """q : F -> ker p in kernel coordinates, and d = incl∘q."""
        k, incl = self.kernel(p)
        if incl.is_zero():
            return None
        f, q = self.epi_cover(k)
        return f, fpab.compose(incl, q), q

    def compose(self, f: FpAbHom, g: FpAbHom) -> FpAbHom:
        return fpab.compose(f, g)

    def identity(self, obj: FpAbGroup) -> FpAbHom:
        return fpab.identity_hom(obj)

    def is_zero_hom(self, f: FpAbHom) -> bool:
        return f.is_zero()

    def underlying(self, f: FpAbHom) -> Sequence[FpAbHom]:
        return (f,)

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
        return FpAbHom(hg_src.group, hg_tgt.group,
                       fpab.precompose(d.matrix, hg_src.module), check=False)


def z_context() -> ZContext:
    return ZContext()
