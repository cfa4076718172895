"""Abelian presheaves on finite posets and their sheaf Ext.

A presheaf assigns a finitely presented abelian group to every element
and a restriction hom to every related pair, downward; checks and hom
group constraints run along the Hasse covers d ⋖ c, as a poset is a
quotient of the free category on its Hasse diagram.  Free presheaves
are sums of representables ZY(c), the integers on the principal down-set
of c: the one AbPresheaf subclass FreePresheaf, which also keeps its
label list.  Hom(ZY(c), F) is evaluation at c, which makes representables
projective for the external theory; resolutions cover only the top of
each stalk, what the restrictions from above do not reach.
Limits (sections, global sections, presheaf hom groups) are one equalizer
inside a direct sum.  By Yoneda, internal Hom(ZY(c), F) at e is the
sections of F over ↓c∩↓e, which is how the projectivity witness reads it.

Sheaf Ext is computed stalkwise: the stalk at c is Ext over the down-set
below c, the restrictions along Hasse covers come from comparison lifts
between the down-set resolutions, and longer ones compose them.  On
sites whose principal down-sets meet in principal down-sets (chains,
trees) one full-site resolution, restricted to every down-set, gives the
same presheaf with plain cochain restriction between the stalks.  Both
paths, cross-checked, answer a degree table from resolutions built once,
to its top degree + 1 (sheaf_ext_table).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import exactint, fpab, resolution
from .exactint import IntMatrix, block_diag, hstack
from .fpab import (
    Element,
    FpAbGroup,
    FpAbHom,
    IllDefined,
    NotEpi,
    NotFree,
    free_abelian,
    identity_hom,
    zmod,
)
from .poset import FinitePoset, PosetError, bowtie, chain, make_poset
from .resolution import FreeHomGroup, FreeResolution, ModuleContext


class SiteMismatch(ValueError):
    """Two presheaves or homs live on different posets."""


class AbPresheaf:
    """Per-element stalks plus one restriction hom per related pair.

    maps[(d, c)] is the restriction F(c) -> F(d) for each strict pair
    d < c; the identity pairs are implicit.  With check, every pair's
    presence and endpoints are checked, and functoriality on the triples
    e ⋖ d < c, which gives every triple (by induction on the longest chain
    in [e, c], every maximal chain composes to F(e, c)); presheaves the
    engine builds skip it.  Sums of representables are FreePresheaf.
    """

    __slots__ = ("site", "stalks", "_maps")

    def __init__(self, site: FinitePoset, stalks: Sequence[FpAbGroup],
                 res: Dict[Tuple[int, int], FpAbHom], check: bool = True):
        stalks = tuple(stalks)
        if len(stalks) != site.size:
            raise IllDefined("need exactly one stalk per element")
        maps = {}
        for (d, c), h in res.items():
            if not site.is_leq(d, c):
                raise IllDefined(f"restriction given for unrelated ({d}, {c})")
            if d == c:
                if check and h != identity_hom(stalks[c]):
                    raise IllDefined(f"restriction at ({c}, {c}) is not "
                                     "the identity")
                continue
            maps[(d, c)] = h
        if check:
            for (d, c) in site.strict_pairs():
                if (d, c) not in maps:
                    raise IllDefined(f"missing restriction for ({d}, {c})")
                h = maps[(d, c)]
                if h.src != stalks[c] or h.tgt != stalks[d]:
                    raise IllDefined(f"restriction for ({d}, {c}) has wrong "
                                     "endpoints")
            for (e, d) in site.covers:
                for c in site.elements():
                    if c != d and site.leq[d][c] and fpab.compose(
                            maps[(e, d)], maps[(d, c)]) != maps[(e, c)]:
                        raise IllDefined("restrictions do not compose along "
                                         f"({e}, {d}, {c})")
        self.site, self.stalks, self._maps = site, stalks, maps

    @property
    def maps(self) -> Dict[Tuple[int, int], FpAbHom]:
        """Each strict pair's restriction, from a stored builder if any."""
        if callable(self._maps):
            self._maps = self._maps()
        return self._maps

    def stalk(self, c: int) -> FpAbGroup:
        return self.stalks[c]

    def res(self, d: int, c: int) -> FpAbHom:
        if d == c:
            return identity_hom(self.stalks[c])
        return self.maps[(d, c)]

    def apply_res(self, d: int, mats) -> IntMatrix:
        """res(d, c)·m side by side over (c, m) in mats, m in F(c) terms."""
        return hstack(*(self.res(d, c).matrix * m for c, m in mats))

    def restrict(self, elems: Sequence[int]) -> "AbPresheaf":
        """The induced presheaf on a subset of elements (local reindexing)."""
        elems = tuple(elems)
        sub = self.site.induced(elems)
        stalks = [self.stalks[e] for e in elems]
        res = {(i, j): self.maps[(elems[i], elems[j])]
               for (i, j) in sub.strict_pairs()}
        return AbPresheaf(sub, stalks, res, check=False)

    def is_zero(self) -> bool:
        return all(s.is_trivial() for s in self.stalks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbPresheaf) and self.site == other.site
                and self.stalks == other.stalks and self.maps == other.maps)

    def __hash__(self) -> int:
        return hash((self.site, self.stalks, tuple(sorted(self.maps.items()))))

    def __repr__(self) -> str:
        inner = ", ".join(fpab.describe(s) for s in self.stalks)
        return f"AbPresheaf[{inner}]"


class PresheafHom:
    """Natural family of stalk homs, one per element.  With check,
    endpoints at every element and naturality along the covers d ⋖ c,
    which gives every d < c between functorial presheaves (the squares
    along a chain of covers paste)."""

    __slots__ = ("src", "tgt", "components")

    def __init__(self, src: AbPresheaf, tgt: AbPresheaf,
                 components: Sequence[FpAbHom], check: bool = True):
        if src.site != tgt.site:
            raise SiteMismatch("source and target live on different posets")
        components = tuple(components)
        if len(components) != src.site.size:
            raise IllDefined("need exactly one component per element")
        if check:
            for c, h in enumerate(components):
                if h.src != src.stalk(c) or h.tgt != tgt.stalk(c):
                    raise IllDefined(f"component at {c} has wrong endpoints")
            for (d, c) in src.site.covers:
                lhs = fpab.compose(components[d], src.res(d, c))
                rhs = fpab.compose(tgt.res(d, c), components[c])
                if lhs != rhs:
                    raise IllDefined(f"naturality fails at pair ({d}, {c})")
        self.src, self.tgt, self.components = src, tgt, components

    def __eq__(self, other) -> bool:
        return (isinstance(other, PresheafHom) and self.src == other.src
                and self.tgt == other.tgt
                and self.components == other.components)

    def __hash__(self) -> int:
        return hash((self.src, self.tgt, self.components))

    def __repr__(self) -> str:
        return f"PresheafHom({self.src!r} -> {self.tgt!r})"


def _compose(f: PresheafHom, g: PresheafHom) -> PresheafHom:
    return PresheafHom(g.src, f.tgt,
                       [fpab.compose(f.components[c], g.components[c])
                        for c in range(f.src.site.size)], check=False)


def is_epi(h: PresheafHom) -> bool:
    """Stalkwise surjectivity."""
    return all(fpab.is_epi(comp) for comp in h.components)


def is_mono(h: PresheafHom) -> bool:
    return all(fpab.is_mono(comp) for comp in h.components)


def zero_presheaf(site: FinitePoset) -> AbPresheaf:
    return FreePresheaf(site, ())


class FreePresheaf(AbPresheaf):
    """A sum of representables ZY(c), one per entry of labels.

    The stalk at d is Z^k on the summands whose label lies above d, with
    coordinate order inherited from the label order; restrictions are
    coordinate inclusions since the supports shrink going up (apply_res),
    built as dense matrices, and metered as such, when maps is first read.
    Equality is that of the presheaf, whatever the labels.
    """

    __slots__ = ("labels", "_sups")

    def __init__(self, site: FinitePoset, labels: Sequence[int]):
        self.site, self.labels = site, tuple(labels)
        for l in self.labels:
            if not 0 <= l < site.size:
                raise IllDefined(f"label {l} is not a poset element")
        sups = self._sups = [[i for i, l in enumerate(self.labels) if row[l]]
                             for row in site.leq]
        stalks = self.stalks = tuple(free_abelian(len(s)) for s in sups)

        def dense():  # reads no self, so self holds no cycle
            if exactint._meter is not None:
                exactint._charge(sum(len(sups[d]) * len(sups[c])
                                     for (d, c) in site.strict_pairs()))
            return {(d, c): FpAbHom(stalks[c], stalks[d], IntMatrix._wrap(
                len(sups[d]), len(sups[c]), tuple(tuple(
                    int(i == j) for j in sups[c]) for i in sups[d])),
                check=False) for (d, c) in site.strict_pairs()}
        self._maps = dense

    def apply_res(self, d: int, mats) -> IntMatrix:
        at = [({s: i for i, s in enumerate(self._sups[c])}, m.data,
               (0,) * m.cols) for c, m in mats]
        rows = (itertools.chain.from_iterable(data[pos[s]] if s in pos else
                zero for pos, data, zero in at) for s in self._sups[d])
        return IntMatrix._wrap(len(self._sups[d]), sum(
            m.cols for _, m in mats), tuple(map(tuple, rows)))

    def support(self, d: int) -> List[int]:
        return self._sups[d]

    def __repr__(self) -> str:
        return f"FreePresheaf(labels={self.labels})"


def _check_element(site: FinitePoset, c: int) -> None:
    if not 0 <= c < site.size:
        raise IllDefined(f"element {c} is not in the poset")


def free_presheaf(site: FinitePoset, c: int) -> AbPresheaf:
    """ZY(c): the integers on the principal down-set of c."""
    _check_element(site, c)
    return FreePresheaf(site, (c,))


# ---------------------------------------------------------------- limits

def _equalizer(groups: Sequence[FpAbGroup],
               arrows) -> Tuple[FpAbGroup, FpAbHom, List[int]]:
    """Where each pair of block maps agrees, inside the direct sum of groups.

    arrows lists (target, c, f, d, g), the constraint f x_c = g x_d in
    target, for summands c != d; the stacked constraint is assembled by
    fpab.unit_block_matrix.  Returns its kernel, the kernel's inclusion
    into the direct sum, and the generator offset of each summand.
    """
    ambient, offsets = fpab.direct_sum_many(groups)
    if not arrows:
        return ambient, identity_hom(ambient), offsets
    targets = [t for t, *_ in arrows]
    total, _ = fpab.direct_sum_many(targets)
    terms = [term for k, (_, c, f, d, g) in enumerate(arrows)
             for term in ((k, c, 1, f), (k, d, -1, g))]
    matrix = fpab.unit_block_matrix(groups, targets, terms)
    constraint = FpAbHom(ambient, total, matrix, check=False)
    return (*fpab.kernel(constraint), offsets)


def sections(F: AbPresheaf,
             elems: Sequence[int]) -> Tuple[FpAbGroup, FpAbHom]:
    """Γ(elems, F) with its inclusion into the sum of the stalks over elems.

    A section is a family compatible under every restriction among elems.
    """
    arrows = [(F.stalk(d), j, F.res(d, c).matrix, i,
               IntMatrix.identity(F.stalk(d).gens))
              for i, d in enumerate(elems) for j, c in enumerate(elems)
              if d != c and F.site.leq[d][c]]
    return _equalizer([F.stalk(x) for x in elems], arrows)[:2]


def global_sections(F: AbPresheaf) -> FpAbGroup:
    """The limit of F: families compatible under every restriction."""
    return sections(F, F.site.elements())[0]


class PresheafHomGroup:
    """The group of natural families F -> G.

    Presented as the equalizer, inside the direct sum of the stalkwise
    hom groups, of one naturality constraint per cover d ⋖ c (enough as
    F and G are functorial; see PresheafHom), on hom-lattice coordinates.
    Coordinates convert to and from PresheafHom values through hom_of
    and coords_of.
    """

    __slots__ = ("src_presheaf", "tgt_presheaf", "hgs", "ambient", "offsets",
                 "incl", "group", "_basis")

    def __init__(self, F: AbPresheaf, G: AbPresheaf):
        if F.site != G.site:
            raise SiteMismatch("hom needs presheaves on one site")
        hgs = [fpab.hom_group(F.stalk(c), G.stalk(c))
               for c in F.site.elements()]
        arrows = []
        for (d, c) in F.site.covers:
            copies = F.stalk(c).gens
            post = block_diag(*[G.res(d, c).matrix] * copies)
            pre = fpab.precompose(F.res(d, c).matrix, G.stalk(d))
            arrows.append((fpab.direct_sum_many([G.stalk(d)] * copies)[0],
                           c, post * hgs[c].lattice, d, pre * hgs[d].lattice))
        group, incl, offsets = _equalizer([hg.group for hg in hgs], arrows)
        self.src_presheaf, self.tgt_presheaf, self.hgs = F, G, hgs
        self.ambient, self.offsets, self.incl = incl.tgt, offsets, incl
        self.group, self._basis = group, None

    def hom_of(self, coords) -> PresheafHom:
        if isinstance(coords, Element):
            coords = coords.coords
        amb = self.incl.matrix * coords
        comps = [hg.hom_of(amb.take_rows(range(off, off + hg.group.gens)))
                 for hg, off in zip(self.hgs, self.offsets)]
        return PresheafHom(self.src_presheaf, self.tgt_presheaf, comps,
                           check=False)

    def coords_of(self, ph: PresheafHom) -> Element:
        vals = [v for hg, h in zip(self.hgs, ph.components)
                for v in hg.coords_of(h).coords.col(0)]
        x = self.incl.solver.solve(IntMatrix.column(vals))
        if x is None:
            raise IllDefined("family is not natural for this hom group")
        return Element(self.group, x)

    @property
    def basis(self) -> List[PresheafHom]:
        if self._basis is None:
            unit = IntMatrix.identity(self.group.gens)
            self._basis = [self.hom_of(unit.column_matrix(j))
                           for j in range(self.group.gens)]
        return self._basis


def presheaf_hom_group(F: AbPresheaf, G: AbPresheaf) -> PresheafHomGroup:
    return PresheafHomGroup(F, G)


def internal_hom(F: AbPresheaf, G: AbPresheaf) -> AbPresheaf:
    """Down-set hom presheaf: at c, the natural families below c.

    The restriction to d forgets the part of a family that lives outside
    the smaller down-set: it keeps the rows of the inclusion at c that
    belong to the hom blocks over the down-set of d, then corestricts
    them through the inclusion at d.
    """
    site = F.site
    downs = [site.down_set(c) for c in site.elements()]
    phgs = [PresheafHomGroup(F.restrict(elems), G.restrict(elems))
            for elems in downs]
    stalks = [phg.group for phg in phgs]
    res = {}
    for (d, c) in site.strict_pairs():
        big, small = phgs[c], phgs[d]
        rows = [big.offsets[k] + r for k, e in enumerate(downs[c])
                if site.is_leq(e, d) for r in range(big.hgs[k].group.gens)]
        part = FpAbHom(stalks[c], small.ambient,
                       big.incl.matrix.take_rows(rows), check=False)
        res[(d, c)] = fpab.corestrict(part, small.incl)
    return AbPresheaf(site, stalks, res, check=True)


# -------------------------------------------------------------- context

def _unit_image(h: PresheafHom, free: FreePresheaf, t: int) -> tuple:
    """Column of h at the t-th Yoneda unit of its free source."""
    l = free.labels[t]
    return h.components[l].matrix.col(free.support(l).index(t))


def _precompose_terms(a: AbPresheaf, src_labels: Sequence[int],
                      tgt_labels: Sequence[int], d: PresheafHom,
                      free: FreePresheaf):
    """unit_block_matrix terms of precomposition with d : free -> P.

    P and free are sums of representables whose labels, read as elements
    of A's site, are src_labels and tgt_labels.  The t-th unit of free
    goes to a combination of the units of P above its label, and A
    restricts their images down to that label.
    """
    leq = a.site.leq
    for t, ct in enumerate(tgt_labels):
        sup = [i for i, l in enumerate(src_labels) if leq[ct][l]]
        for i, c in zip(sup, _unit_image(d, free, t)):
            if c:
                yield t, i, c, a.res(ct, src_labels[i]).matrix


def _top_cover(site: FinitePoset, lattices: Sequence[IntMatrix]):
    """(F, keep): keep[c] lists the generators of B(c) off the pivot-1 rows
    r of the echelon basis of lattices[c], which rel(B(c)) and the images
    along covers c ⋖ l span (B is functorial), and F has a representable
    at c for each.  e_r = -sum_{i>r} v_i e_i modulo it, so F maps onto B by
    downward induction on r and c; pivots depend on the lattice alone."""
    spares = [{r for r, p, _ in FpAbGroup(m.rows, m)._echelon_basis()
               if p == 1} if m.cols else () for m in lattices]
    keep = [[j for j in range(m.rows) if j not in spare]
            for m, spare in zip(lattices, spares)]
    return FreePresheaf(site, [c for c, k in enumerate(keep) for _ in k]), keep


def _kernel_blocks(f: PresheafHom):
    """(K, incl, starts, blocks, sols) for ker f; incl at c is the L_c that
    fpab.kernel makes.  blocks[c] is f.src(c ≤ l)·L_l over the l >= c,
    side by side from column starts[c][l]; sols[c], its one solve against
    L_c, is K(c ≤ l) side by side (the identity at l = c), which K reads
    on first use: corestrictions of f.src's restrictions along the
    stalkwise monos, so they compose as f.src's do and incl is natural."""
    src, parts = f.src, [fpab.kernel(h) for h in f.components]
    starts, blocks, sols = [], [], []
    for c, (_, incl) in enumerate(parts):
        ups = [l for l, up in enumerate(src.site.leq[c]) if up]
        starts.append(dict(zip(ups, itertools.accumulate(
            [parts[l][0].gens for l in ups], initial=0))))
        blocks.append(src.apply_res(c, [(l, parts[l][1].matrix) for l in ups]))
        sols.append(incl.solver.solve_matrix(blocks[c]))
        if sols[c] is None:
            raise IllDefined(f"restrictions to {c} leave the kernel")
    k = AbPresheaf(src.site, [k for (k, _) in parts], {}, check=False)
    k._maps = lambda: {
        (c, l): FpAbHom(parts[l][0], parts[c][0], sols[c].take_cols(
            range(s, s + parts[l][0].gens)), check=False)
        for c, row in enumerate(starts) for l, s in row.items() if l != c}
    return (k, PresheafHom(k, src, [i for (_, i) in parts], check=False),
            starts, blocks, sols)


class PresheafContext(ModuleContext):
    """Presheaves of abelian groups over one fixed finite poset.

    Free objects are FreePresheaf, sums of representables that keep
    their labels; kernels and underlying maps are stalkwise; lifts out of
    frees solve at the Yoneda units and extend along restrictions.
    """

    def __init__(self, site: FinitePoset):
        self.site = site

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.site == other.site

    def __hash__(self) -> int:
        return hash((type(self), self.site))

    def free_rank(self, f) -> int:
        if isinstance(f, FreePresheaf):
            return len(f.labels)
        raise NotFree("object is not a sum of representables")

    def epi_cover(self, b) -> Tuple[FreePresheaf, PresheafHom]:
        free, keep = _top_cover(self.site, [hstack(b.stalk(c).relations, *(
            b.maps[(c, l)].matrix for (x, l) in self.site.covers if x == c))
            for c in self.site.elements()])
        idents = [IntMatrix.identity(s.gens) for s in b.stalks]
        return free, self.extend_units(free, b, [
            idents[c].column_matrix(j) for c, js in enumerate(keep)
            for j in js])

    def kernel(self, f: PresheafHom) -> Tuple[AbPresheaf, PresheafHom]:
        return _kernel_blocks(f)[:2]

    def cover_kernel(self, p: PresheafHom):
        """In p's free source coordinates: at c, a kept generator j of K(l)
        is column j of K(c ≤ l) in q, of p.src(c ≤ l)·L_l in d."""
        k, _, starts, blocks, sols = _kernel_blocks(p)
        if not any(s.gens for s in k.stalks):
            return None
        free, keep = _top_cover(self.site, [sols[c].take_cols([
            row[l] + j for (x, l) in self.site.covers if x == c
            for j in range(k.stalk(l).gens)]) for c, row in enumerate(starts)])
        cols = [[s + j for l, s in row.items() for j in keep[l]]
                for row in starts]

        def taking(mats, tgt):
            return PresheafHom(free, tgt, [FpAbHom(
                free.stalk(c), tgt.stalk(c), m.take_cols(cs), check=False)
                for c, (m, cs) in enumerate(zip(mats, cols))], check=False)
        return free, taking(blocks, p.src), taking(sols, k)

    def compose(self, f, g) -> PresheafHom:
        return _compose(f, g)

    def identity(self, obj) -> PresheafHom:
        return PresheafHom(obj, obj, [identity_hom(s) for s in obj.stalks],
                           check=False)

    def is_zero_hom(self, f: PresheafHom) -> bool:
        return all(comp.is_zero() for comp in f.components)

    def underlying(self, f: PresheafHom) -> Sequence[FpAbHom]:
        return f.components

    def lift_through(self, p: PresheafHom, g: PresheafHom) -> PresheafHom:
        """Solve at the Yoneda units of g's free source, extend downward."""
        free = g.src
        if not isinstance(free, FreePresheaf):
            raise NotFree("lifts need a source that is a sum of "
                          "representables")
        units = []
        for i, l in enumerate(free.labels):
            x = p.components[l].solver.solve(
                IntMatrix.column(_unit_image(g, free, i)))
            if x is None:
                raise NotEpi("map does not reach a unit image")
            units.append(x)
        return self.extend_units(free, p.src, units)

    def hom_group(self, f, a) -> FreeHomGroup:
        if not isinstance(f, FreePresheaf):
            raise NotFree("hom_group source must be a sum of "
                          "representables")
        return FreeHomGroup(self, f, a, [a.stalk(l) for l in f.labels])

    def extend_units(self, free, a: AbPresheaf, units) -> PresheafHom:
        """Yoneda extension: at d, each unit above d restricts to A(d)."""
        vecs = [u.col(0) for u in units]
        nonzero = [[(k, x) for k, x in enumerate(u) if x] for u in vecs]
        leq, comps = self.site.leq, []
        for d in self.site.elements():
            cols = tuple(u if d == l else
                         tuple(sum(row[k] * x for k, x in nz)
                               for row in a.maps[(d, l)].matrix.data)
                         for l, u, nz in zip(free.labels, vecs, nonzero)
                         if leq[d][l])
            matrix = IntMatrix._wrap(len(cols), a.stalk(d).gens, cols)
            comps.append(FpAbHom(free.stalk(d), a.stalk(d),
                                 matrix.transpose(), check=False))
        return PresheafHom(free, a, comps, check=False)

    def induced_precompose(self, hg_src: FreeHomGroup, hg_tgt: FreeHomGroup,
                           d: PresheafHom) -> FpAbHom:
        terms = _precompose_terms(hg_src.module, hg_src.free.labels,
                                  hg_tgt.free.labels, d, hg_tgt.free)
        m = fpab.unit_block_matrix(hg_src.stalks, hg_tgt.stalks, terms)
        return FpAbHom(hg_src.group, hg_tgt.group, m, check=False)


def presheaf_context(site: FinitePoset) -> PresheafContext:
    return PresheafContext(site)


def external_ext_table(b: AbPresheaf, a: AbPresheaf, degrees: Sequence[int]
                       ) -> Dict[int, resolution.CohomologyData]:
    """external_ext data in each listed degree, from one resolution of B."""
    if b.site != a.site:
        raise SiteMismatch("Ext needs presheaves on one site")
    return resolution.ext_table(presheaf_context(b.site), b, a, degrees)


def external_ext(b: AbPresheaf, a: AbPresheaf, n: int) -> FpAbGroup:
    """Ext of presheaves via a full-site resolution by representables."""
    return external_ext_table(b, a, [n])[n].group


# ------------------------------------------------------------ sheaf Ext

class SheafExtResult:
    """The sheaf Ext presheaf plus the down-set resolution behind each
    stalk, which may end before the table's top degree + 1."""

    __slots__ = ("presheaf", "resolutions")

    def __init__(self, presheaf: AbPresheaf,
                 resolutions: Dict[int, FreeResolution]):
        self.presheaf, self.resolutions = presheaf, resolutions

    def stalk(self, c: int) -> FpAbGroup:
        return self.presheaf.stalk(c)

    def __repr__(self) -> str:
        return f"SheafExtResult({self.presheaf!r})"


_NOT_PRINCIPAL = "not principal"


def _meet(site: FinitePoset, l: int, c: int):
    """The largest common lower bound of l and c.

    None when their down-sets are disjoint, _NOT_PRINCIPAL when the
    intersection is nonempty but has no maximum.
    """
    common = [x for x in site.elements() if site.leq[x][l] and site.leq[x][c]]
    if not common:
        return None
    for x in common:
        if all(site.leq[y][x] for y in common):
            return x
    return _NOT_PRINCIPAL


def principal_intersection_check(site: FinitePoset) -> bool:
    """Do principal down-sets intersect in empty or principal down-sets?"""
    return all(_meet(site, l, c) is not _NOT_PRINCIPAL
               for l in site.elements() for c in site.elements())


def _restricted(res: FreeResolution, elems: Sequence[int], ctx, target,
                frees: Sequence) -> FreeResolution:
    """res on elems, over frees holding its first terms there: every map
    keeps its components at elems, and all of a complete res stays so."""
    diffs = [PresheafHom(frees[k], frees[k - 1], [
        res.diff(k).components[e] for e in elems], check=False)
        for k in range(1, len(frees))]
    aug = PresheafHom(frees[0], target, [
        res.augmentation.components[e] for e in elems], check=False)
    whole = len(frees) == len(res.frees)
    return FreeResolution(ctx, target, frees, diffs, aug, dd_verified=True,
                          complete=res.complete and whole)


def _assemble(a: AbPresheaf, degrees: Sequence[int], resolutions,
              transport) -> Dict[int, SheafExtResult]:
    """The Ext presheaf in each degree, stalks read off the down-set
    resolutions.  For a cover d ⋖ c, transport(d, c, live) yields a cocycle
    transport per degree in live, where both stalks are nonzero, and the
    restriction is its class map, or zero; a longer d < m < c reduces the
    composite through m, which is that class map (reduce is canonical)."""
    site = a.site
    data = {c: resolution.cohomology_table(res, a.restrict(
        site.down_set(c)), degrees) for c, res in resolutions.items()}
    maps = {n: {} for n in degrees}
    # composites come after their factors: |↑d| > |↑m| > |↑c|
    for (d, c) in sorted(site.strict_pairs(), key=lambda pair: sum(
            site.leq[pair[0]]) - sum(site.leq[pair[1]])):
        mid = next((m for (x, m) in site.covers
                    if x == d and m != c and site.leq[m][c]), None)
        live = [n for n in degrees if mid is None
                and data[c][n].group.gens and data[d][n].group.gens]
        moved = dict(zip(live, transport(d, c, live))) if live else {}
        for n in degrees:
            src, tgt = data[c][n], data[d][n]
            maps[n][(d, c)] = (
                FpAbHom(src.group, tgt.group, tgt.group.reduce(
                    maps[n][(d, mid)].matrix * maps[n][(mid, c)].matrix),
                    check=False)
                if mid is not None else
                FpAbHom(src.group, tgt.group,
                        tgt.classes_of(moved[n] * src.lattice))
                if n in moved else fpab.zero_hom(src.group, tgt.group))
    return {n: SheafExtResult(AbPresheaf(
                site, [data[c][n].group for c in site.elements()], maps[n],
                check=True), resolutions) for n in degrees}


def _sheaf_ext_general(b: AbPresheaf, a: AbPresheaf,
                       degrees: Sequence[int]) -> Dict[int, SheafExtResult]:
    site, top = b.site, max(degrees)
    downs, resolutions = {}, {}
    for c in site.elements():
        sub, downs[c] = site.down_poset(c)
        resolutions[c] = resolution.free_resolution(
            presheaf_context(sub), b.restrict(downs[c]), top + 1)

    def transport(d, c, live):
        res_c, res_d = resolutions[c], resolutions[d]
        keep = [downs[c].index(e) for e in downs[d]]
        # res_c below d, as deep as the highest live degree
        q = _restricted(res_c, keep, res_d.ctx, res_d.target, [
            res_c.free(k).restrict(keep)
            for k in range(max(live) + 1)])
        lift = resolution.lift_chain_map(res_d, q,
                                         res_d.ctx.identity(res_d.target))
        for n in live:
            # restrict a cochain on P^c_n to the smaller down-set, then
            # precompose with the lift P^d_n -> P^c_n there
            labels_c = [downs[c][l] for l in res_c.free(n).labels]
            labels_d = [downs[d][l] for l in res_d.free(n).labels]
            yield fpab.unit_block_matrix(
                [a.stalk(l) for l in labels_c], [a.stalk(l) for l in labels_d],
                _precompose_terms(a, labels_c, labels_d, lift[n],
                                  res_d.free(n)))

    return _assemble(a, degrees, resolutions, transport)


def _sheaf_ext_fast(b: AbPresheaf, a: AbPresheaf,
                    degrees: Sequence[int]) -> Dict[int, SheafExtResult]:
    """One full-site resolution, restricted to every down-set.

    Sound whenever principal_intersection_check holds: ZY(l) restricted
    below c is then ZY(l∧c), or zero when the down-sets are disjoint, so
    the restricted resolution is a free resolution of B over the down-set
    with the same stalk coordinates and component matrices.  Restricting
    a cochain from c to d < c is a cochain map between the restricted hom
    complexes, read off A.res(l∧d, l∧c) summand by summand.
    """
    site, top = b.site, max(degrees)
    res = resolution.free_resolution(presheaf_context(site), b, top + 1)
    meet = [[_meet(site, l, c) for c in site.elements()]
            for l in site.elements()]
    resolutions, kept = {}, {}
    for c in site.elements():
        sub, elems = site.down_poset(c)
        local = {e: i for i, e in enumerate(elems)}
        # (summand, l∧c) for the summands of each P_k that meet ↓c
        kept[c] = [[(i, meet[l][c]) for i, l in enumerate(f.labels)
                    if meet[l][c] is not None] for f in res.frees]
        resolutions[c] = _restricted(
            res, elems, presheaf_context(sub), b.restrict(elems),
            [FreePresheaf(sub, [local[m] for _, m in ks]) for ks in kept[c]])

    def transport(d, c, live):
        for n in live:
            # a summand that meets ↓d meets ↓c too
            col = {i: (j, m) for j, (i, m) in enumerate(kept[c][n])}
            terms = [(t, col[i][0], 1, a.res(m, col[i][1]).matrix)
                     for t, (i, m) in enumerate(kept[d][n])]
            yield fpab.unit_block_matrix(
                [a.stalk(m) for _, m in kept[c][n]],
                [a.stalk(m) for _, m in kept[d][n]], terms)

    return _assemble(a, degrees, resolutions, transport)


def sheaf_ext_table(b: AbPresheaf, a: AbPresheaf, degrees: Sequence[int],
                    method: str = "general") -> Dict[int, SheafExtResult]:
    """The Ext presheaf in each listed degree: at c, Ext over the down-set
    below c.

    method "general" (and "auto") resolves every down-set separately and
    connects the stalks by comparison lifts along the Hasse covers;
    "fast", the independent check, restricts one full-site resolution to
    every down-set, valid on sites passing principal_intersection_check.
    Each resolution is built once, to the top degree + 1 or its first
    zero kernel, and shared by the results; each cover is lifted once,
    and not at all where its stalks are zero in every listed degree.
    """
    if b.site != a.site:
        raise SiteMismatch("sheaf Ext needs presheaves on one site")
    if min(degrees) < 0:
        raise ValueError("Ext degree must be nonnegative")
    if method not in ("general", "fast", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if method != "fast":
        return _sheaf_ext_general(b, a, degrees)
    if not principal_intersection_check(b.site):
        raise ValueError("fast path needs principal down-set intersections")
    return _sheaf_ext_fast(b, a, degrees)


def sheaf_ext(b: AbPresheaf, a: AbPresheaf, n: int,
              method: str = "general") -> SheafExtResult:
    """The Ext presheaf in degree n; see sheaf_ext_table."""
    return sheaf_ext_table(b, a, [n], method)[n]


# ------------------------------------------------- projectivity witness

def _internal_hom_at(site: FinitePoset, c: int, e: int,
                     sigma: PresheafHom) -> FpAbHom:
    """Internal Hom(ZY(c), sigma) at e: by Yoneda, sigma on Γ(↓c∩↓e, -)."""
    elems = [x for x in site.down_set(c) if site.leq[x][e]]
    src, src_incl = sections(sigma.src, elems)
    tgt, tgt_incl = sections(sigma.tgt, elems)
    post = block_diag(*(sigma.components[x].matrix for x in elems))
    pushed = FpAbHom(src, tgt_incl.tgt, post * src_incl.matrix, check=False)
    return fpab.corestrict(pushed, tgt_incl)


def internal_projectivity_witness(site: FinitePoset, c: int,
                                  sigma: PresheafHom) -> Optional[int]:
    """First stalk where internal_hom(ZY(c), -) fails to preserve sigma.

    Each stalk map is read through Yoneda as sigma on the sections over
    ↓c∩↓e (see _internal_hom_at).  Returns None when the induced map is
    epi at every element.  Absence over any family of epis is evidence,
    never a certificate.
    """
    _check_element(site, c)
    if not is_epi(sigma):
        raise ValueError("sigma must be an epimorphism")
    for e in site.elements():
        if not fpab.is_epi(_internal_hom_at(site, c, e, sigma)):
            return e
    return None


# Stalk kinds 0, Z/2 and Z.  An epi out of kind k hits the kinds in
# _EPI_KINDS[k]; the canonical map from k onto a nonzero one of them is the
# unit, and every other canonical map is zero.
_STALK_KINDS = (fpab.make_group(0), zmod(2), free_abelian(1))
_EPI_KINDS = ((0,), (0, 1), (0, 1, 2))


def witness_search(site: FinitePoset,
                   c: int) -> Optional[Tuple[PresheafHom, int]]:
    """First canonical epi f -> g that internal Hom(ZY(c), -) fails on.

    Returns it with its first failing stalk, or None.  Stalks have kind
    0, Z/2 or Z and every map is canonical for its kinds, so each check
    is decided once per kind pattern, by tables and a memo that live for
    one call: functoriality over kind triples on e ⋖ d < x, naturality
    over (f_x, f_d, g_x, g_d) on covers, surjectivity at e on ↓c∩↓e and
    the kinds of f and g there.  Pairs run in lexicographic order of f's
    kinds, then g's.  Only an e where ↓c∩↓e has no maximum m is asked:
    otherwise the sections are the stalk at m, where the epi is onto.
    """
    _check_element(site, c)
    meets = [(e, tuple(x for x in site.down_set(c) if site.leq[x][e]))
             for e in site.elements() if _meet(site, c, e) is _NOT_PRINCIPAL]
    if not meets:
        return None
    homs = [[FpAbHom(s, t, IntMatrix.from_rows([[1]]) if b in _EPI_KINDS[a][1:]
                     else IntMatrix.zero(t.gens, s.gens), check=False)
             for b, t in enumerate(_STALK_KINDS)]
            for a, s in enumerate(_STALK_KINDS)]
    kinds, pairs, covers = range(3), site.strict_pairs(), site.covers
    composes = {(a, b, t): fpab.compose(homs[b][t], homs[a][b]) == homs[a][t]
                for a in kinds for b in kinds for t in kinds}
    natural = {(fx, fd, gx, gd): fpab.compose(homs[fd][gd], homs[fx][fd])
               == fpab.compose(homs[gx][gd], homs[fx][gx])
               for fx in kinds for fd in kinds for gx in kinds for gd in kinds}
    triples = [(e, d, x) for (e, d) in covers
               for x in site.elements() if x != d and site.leq[d][x]]
    cands = [k for k in itertools.product(kinds, repeat=site.size)
             if all(composes[k[x], k[d], k[e]] for (e, d, x) in triples)]
    functorial = set(cands)

    def realize(kf, kg, check):
        def presheaf(k):
            res = {(d, x): homs[k[x]][k[d]] for (d, x) in pairs}
            return AbPresheaf(site, [_STALK_KINDS[a] for a in k], res,
                              check=check)
        return PresheafHom(presheaf(kf), presheaf(kg),
                           [homs[a][b] for a, b in zip(kf, kg)], check=check)

    preserved: Dict[tuple, bool] = {}
    for kf in cands:
        for kg in itertools.product(*(_EPI_KINDS[k] for k in kf)):
            if kg not in functorial or not all(
                    natural[kf[x], kf[d], kg[x], kg[d]] for (d, x) in covers):
                continue
            for e, meet in meets:
                key = (meet, tuple((kf[x], kg[x]) for x in meet))
                if key not in preserved:
                    preserved[key] = fpab.is_epi(
                        _internal_hom_at(site, c, e, realize(kf, kg, False)))
                if not preserved[key]:
                    return realize(kf, kg, True), e
    return None
