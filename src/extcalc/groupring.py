"""Finite groups, modules over their integral group rings, group cohomology.

A module over ZG is a finitely presented abelian group with a G-action by
automorphisms.  Free modules ZG^r are held compactly, because the bar
resolutions of the trivial module have rank |G|^n, or (|G|-1)^n when
normalized, in degree n and their differentials would be hopeless as
dense integer matrices; they are stored as sparse columns over the group
ring and expanded only against coefficient modules.  Group cohomology is
Ext over the group-ring context through greedy_resolution (rank one in
every degree for a cyclic group), cross-checked by the normalized and
unnormalized bar resolutions, the 2-periodic resolution for cyclic
groups, and crossed homomorphisms in degree one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .exactint import (
    DimensionMismatch,
    IntMatrix,
    ModSolver,
    SnfSolver,
    block_diag,
    constrained_kernel,
    hstack,
    kernel_basis,
    vstack,
)
from . import fpab
from .fpab import (
    FpAbGroup,
    FpAbHom,
    IllDefined,
    NotEpi,
    NotFree,
    free_abelian,
)
from . import resolution
from .resolution import FreeHomGroup, FreeResolution, ModuleContext
from .ses import ext1_group, ext1_pullback, ext1_pushforward


class GroupLawError(ValueError):
    """A multiplication table fails one of the group axioms."""


class NotEquivariant(ValueError):
    """A map or action does not commute with the group structure."""


class FiniteGroup:
    """A group on {0, ..., n-1} given by its full multiplication table.

    The table is validated exhaustively at construction: closure, a
    two-sided identity, associativity, and two-sided inverses.  A
    violation names the failed axiom and the witnessing indices.
    """

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table: Sequence[Sequence[int]]):
        tab = tuple(tuple(int(x) for x in row) for row in table)
        n = len(tab)
        if n == 0:
            raise GroupLawError("empty table: a group needs an identity")
        if any(len(row) != n for row in tab):
            raise GroupLawError("multiplication table is not square")
        for i in range(n):
            for j in range(n):
                if not 0 <= tab[i][j] < n:
                    raise GroupLawError(
                        f"closure fails at ({i}, {j}): entry {tab[i][j]} "
                        f"is outside 0..{n - 1}")
        e = None
        for c in range(n):
            if all(tab[c][j] == j and tab[j][c] == j for j in range(n)):
                e = c
                break
        if e is None:
            raise GroupLawError("no two-sided identity element")
        for i in range(n):
            row_i = tab[i]
            for j in range(n):
                tij = row_i[j]
                row_j = tab[j]
                for k in range(n):
                    if tab[tij][k] != row_i[row_j[k]]:
                        raise GroupLawError(
                            f"associativity fails at ({i}, {j}, {k})")
        inv = []
        for i in range(n):
            j = next((j for j in range(n)
                      if tab[i][j] == e and tab[j][i] == e), None)
            if j is None:
                raise GroupLawError(f"no inverse for element {i}")
            inv.append(j)
        self.order = n
        self.table = tab
        self.identity = e
        self.inverse = tuple(inv)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def make_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table into a group."""
    return FiniteGroup(table)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def klein_four() -> FiniteGroup:
    # xor on two bits is exactly the Klein group law
    return FiniteGroup([[i ^ j for j in range(4)] for i in range(4)])


def symmetric3() -> FiniteGroup:
    """S_3 on the six permutations of three points, in lexicographic order."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
             for p in perms]
    return FiniteGroup(table)


def _greedy_generators(G: FiniteGroup) -> List[int]:
    """Each element outside the subgroup generated by those before it."""
    gens, reached, t = [], {G.identity}, G.table
    for g in range(G.order):
        if g not in reached:
            gens.append(g)
            while new := {t[s][x] for s in gens for x in reached} - reached:
                reached |= new
    return gens


class GModule:
    """Abelian group with a G-action by automorphisms, i.e. a ZG-module.

    action[g] is the endomorphism for group element g.  check=True, the
    default for modules from outside, tests ρ(e) = id, and ρ(s)∘ρ(h) =
    ρ(sh) for s in a greedy generating set S and every h, as homs (equal
    modulo the relations, not as literal matrices).  These |S|·|G|
    compositions decide the whole law: the s obeying it for every h
    contain e and S and are closed under products, as ρ(st)∘ρ(h) =
    ρ(s)∘ρ(th) = ρ(sth), so they form a submonoid, and in a finite group
    the submonoid generated by S is G.  The laws make every action an
    automorphism, since ρ(g)∘ρ(g⁻¹) = ρ(e) = id.  Constructions inside
    the engine whose laws hold by design pass check=False.  zg_rank marks
    modules materialized from a free ZG^r and records the block layout
    equivariant lifts rely on.
    """

    __slots__ = ("G", "M", "action", "zg_rank")

    def __init__(self, G: FiniteGroup, M: FpAbGroup,
                 action: Sequence[FpAbHom], check: bool = True,
                 zg_rank: Optional[int] = None):
        action = tuple(action)
        if len(action) != G.order:
            raise IllDefined("need exactly one action hom per group element")
        for g, h in enumerate(action):
            if h.src != M or h.tgt != M:
                raise IllDefined(f"action of element {g} is not an "
                                 "endomorphism of the module")
        if check:
            # every action is an endomorphism of M, so comparing reduced
            # matrices is hom equality; each action is reduced only once
            reduced = [h.reduced_matrix() for h in action]
            if reduced[G.identity] != fpab.identity_hom(M).reduced_matrix():
                raise NotEquivariant("identity element does not act as the "
                                     "identity map")
            for g in _greedy_generators(G):
                for h in range(G.order):
                    if (fpab.compose(action[g], action[h]).reduced_matrix()
                            != reduced[G.table[g][h]]):
                        raise NotEquivariant(
                            f"action is not multiplicative at ({g}, {h})")
        self.G = G
        self.M = M
        self.action = action
        self.zg_rank = zg_rank

    def __eq__(self, other) -> bool:
        return (isinstance(other, GModule) and self.G == other.G
                and self.M == other.M and self.action == other.action)

    def __hash__(self) -> int:
        return hash((self.G, self.M, self.action))

    def __repr__(self) -> str:
        return f"GModule({fpab.describe(self.M)}, |G|={self.G.order})"


class GModuleHom:
    """ZG-module map: an abelian-group hom commuting with both actions."""

    __slots__ = ("src", "tgt", "ab")

    def __init__(self, src: GModule, tgt: GModule, ab: FpAbHom,
                 check: bool = True):
        if src.G != tgt.G:
            raise IllDefined("source and target live over different groups")
        if ab.src != src.M or ab.tgt != tgt.M:
            raise DimensionMismatch("underlying hom endpoints do not match")
        if check:
            for g in range(src.G.order):
                if (fpab.compose(ab, src.action[g])
                        != fpab.compose(tgt.action[g], ab)):
                    raise NotEquivariant(
                        f"map does not commute with element {g}")
        self.src = src
        self.tgt = tgt
        self.ab = ab

    def __eq__(self, other) -> bool:
        return (isinstance(other, GModuleHom) and self.src == other.src
                and self.tgt == other.tgt and self.ab == other.ab)

    def __hash__(self) -> int:
        return hash((self.src, self.tgt, self.ab))

    def __repr__(self) -> str:
        return f"GModuleHom({self.src!r} -> {self.tgt!r})"


class FreeGModule:
    """ZG^r held compactly as just the group and the rank.

    The Z-basis is indexed (block, group element) at block*|G| + element,
    and left translation by g carries (j, h) to (j, gh).  dense() expands
    to the permutation-action module; resolution machinery only does that
    at the ranks where kernels are actually taken.
    """

    __slots__ = ("G", "rank", "_dense")

    def __init__(self, G: FiniteGroup, rank: int):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.G = G
        self.rank = rank
        self._dense = None

    def dense(self) -> GModule:
        if self._dense is None:
            self._dense = group_ring_module(self.G, self.rank)
        return self._dense

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeGModule) and self.G == other.G
                and self.rank == other.rank)

    def __hash__(self) -> int:
        return hash((self.G, self.rank))

    def __repr__(self) -> str:
        return f"FreeGModule(ZG^{self.rank}, |G|={self.G.order})"


class ZGFreeHom:
    """Map ZG^r -> ZG^s as sparse columns over the group ring.

    cols[j] lists (target block, group element, coefficient) triples
    describing the image of the j-th block unit; left linearity determines
    everything else.  Terms are kept sorted with like terms combined, so a
    composite that cancels, like d∘d of the bar resolution, is literally
    the empty map.
    """

    __slots__ = ("G", "src", "tgt", "cols", "_expanded")

    def __init__(self, G: FiniteGroup, src: FreeGModule, tgt: FreeGModule,
                 cols: Sequence[Sequence[Tuple[int, int, int]]]):
        cols = tuple(tuple(col) for col in cols)
        if len(cols) != src.rank:
            raise DimensionMismatch("need one column per source block")
        for col in cols:
            for (i, g, _) in col:
                if not (0 <= i < tgt.rank and 0 <= g < G.order):
                    raise DimensionMismatch("column term out of range")
        self.G = G
        self.src = src
        self.tgt = tgt
        self.cols = cols
        self._expanded = None

    @classmethod
    def from_terms(cls, G: FiniteGroup, src: FreeGModule, tgt: FreeGModule,
                   raw_cols) -> "ZGFreeHom":
        cols = []
        for terms in raw_cols:
            acc = {}
            for (i, g, c) in terms:
                acc[(i, g)] = acc.get((i, g), 0) + c
            cols.append(tuple((i, g, c)
                              for (i, g), c in sorted(acc.items()) if c))
        return cls(G, src, tgt, cols)

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def dense(self) -> GModuleHom:
        """Expand to the full hom on underlying abelian groups."""
        if self._expanded is None:
            G = self.G
            n = G.order
            src, tgt = self.src.dense(), self.tgt.dense()
            height = n * self.tgt.rank
            cols = []
            for j in range(self.src.rank):
                for h in range(n):
                    col = [0] * height
                    for (i, b, c) in self.cols[j]:
                        col[i * n + G.table[h][b]] += c
                    cols.append(col)
            mat = IntMatrix.from_cols(cols, rows=height)
            self._expanded = GModuleHom(
                src, tgt, FpAbHom(src.M, tgt.M, mat, check=False),
                check=False)
        return self._expanded

    def __repr__(self) -> str:
        return f"ZGFreeHom(ZG^{self.src.rank} -> ZG^{self.tgt.rank})"


def _compose_free(f: ZGFreeHom, g: ZGFreeHom) -> ZGFreeHom:
    """f after g, multiplied out over the group ring."""
    if g.tgt != f.src:
        raise DimensionMismatch("composition endpoint mismatch")
    table = f.G.table
    out = []
    for terms in g.cols:
        acc = {}
        for (mid, a, c) in terms:
            for (i, b, c2) in f.cols[mid]:
                key = (i, table[a][b])
                acc[key] = acc.get(key, 0) + c * c2
        out.append(tuple((i, b, c) for (i, b), c in sorted(acc.items()) if c))
    return ZGFreeHom(f.G, g.src, f.tgt, out)


def group_ring_module(G: FiniteGroup, r: int) -> GModule:
    """ZG^r: free abelian on r copies of G, acted on by left translation.

    The basis element (j, h) sits at index j*|G| + h, and g sends it to
    (j, gh): the unit of a block lands in the gh slot of the same block.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    n = G.order
    m = free_abelian(n * r)
    action = []
    for g in range(n):
        row_g = G.table[g]
        cols = []
        for j in range(r):
            for h in range(n):
                col = [0] * (n * r)
                col[j * n + row_g[h]] = 1
                cols.append(col)
        action.append(FpAbHom(m, m, IntMatrix.from_cols(cols, rows=n * r),
                              check=False))
    return GModule(G, m, action, check=False, zg_rank=r)


def trivial_module(G: FiniteGroup, M: FpAbGroup) -> GModule:
    """M with every group element acting as the identity."""
    ident = fpab.identity_hom(M)
    return GModule(G, M, [ident] * G.order, check=False)


def sign_module(G: FiniteGroup) -> GModule:
    """Z with the nonidentity element of an order-2 group acting as -1."""
    if G.order != 2:
        raise ValueError("sign module needs a group of order 2")
    m = free_abelian(1)
    ident = fpab.identity_hom(m)
    return GModule(G, m, [ident, -ident] if G.identity == 0
                   else [-ident, ident], check=False)


def _zg_columns(d) -> tuple:
    """Sparse group-ring columns of a map between free modules."""
    if isinstance(d, ZGFreeHom):
        return d.cols
    r_src, r_tgt = d.src.zg_rank, d.tgt.zg_rank
    if r_src is None or r_tgt is None:
        raise ValueError("differential endpoints are not marked as free")
    n = d.src.G.order
    e = d.src.G.identity
    cols = []
    for j in range(r_src):
        terms = []
        for idx, c in enumerate(d.ab.matrix.col(j * n + e)):
            if c:
                terms.append((idx // n, idx % n, c))
        cols.append(tuple(terms))
    return tuple(cols)


class GModuleContext(ModuleContext):
    """Modules over ZG for one fixed finite group.

    Free objects stay compact and compose symbolically; anything passing
    through a kernel or a corestriction gets materialized, which is fine
    at the ranks where those actually happen.  Epis are underlying epis,
    and lifts out of frees solve for the block units only, then extend
    equivariantly.
    """

    def __init__(self, G: FiniteGroup):
        self.G = G

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.G == other.G

    def __hash__(self) -> int:
        return hash((type(self), self.G))

    def _obj(self, x) -> GModule:
        return x.dense() if isinstance(x, FreeGModule) else x

    def _hom(self, f) -> GModuleHom:
        return f.dense() if isinstance(f, ZGFreeHom) else f

    def free_rank(self, f) -> int:
        if isinstance(f, FreeGModule):
            return f.rank
        if isinstance(f, GModule) and f.zg_rank is not None:
            return f.zg_rank
        raise NotFree("object is not a free module")

    def epi_cover(self, b) -> Tuple[FreeGModule, GModuleHom]:
        # one block per generator of B, its unit sent to that generator
        b = self._obj(b)
        f = FreeGModule(self.G, b.M.gens)
        ident = IntMatrix.identity(b.M.gens)
        units = [ident.column_matrix(j) for j in range(b.M.gens)]
        return f, self.extend_units(f, b, units)

    def kernel(self, f) -> Tuple[GModule, GModuleHom]:
        f = self._hom(f)
        k_ab, incl_ab = fpab.kernel(f.ab)
        acts = []
        for g in range(self.G.order):
            moved = fpab.compose(f.src.action[g], incl_ab)
            acts.append(fpab.corestrict(moved, incl_ab))
        # each action and the inclusion are corestrictions along the mono
        # incl, so the module laws and equivariance hold as they do on f.src
        k = GModule(self.G, k_ab, acts, check=False)
        incl = GModuleHom(k, f.src, incl_ab, check=False)
        return k, incl

    def compose(self, f, g):
        if isinstance(f, ZGFreeHom) and isinstance(g, ZGFreeHom):
            return _compose_free(f, g)
        fd, gd = self._hom(f), self._hom(g)
        return GModuleHom(gd.src, fd.tgt, fpab.compose(fd.ab, gd.ab),
                          check=False)

    def identity(self, obj):
        if isinstance(obj, FreeGModule):
            e = self.G.identity
            return ZGFreeHom(self.G, obj, obj,
                             [((j, e, 1),) for j in range(obj.rank)])
        return GModuleHom(obj, obj, fpab.identity_hom(obj.M), check=False)

    def is_zero_hom(self, f) -> bool:
        if isinstance(f, ZGFreeHom):
            return f.is_zero()
        return f.ab.is_zero()

    def is_epi(self, f) -> bool:
        return fpab.is_epi(self._hom(f).ab)

    def corestrict(self, f, incl) -> GModuleHom:
        fd, incl = self._hom(f), self._hom(incl)
        res = fpab.corestrict(fd.ab, incl.ab)
        return GModuleHom(fd.src, incl.src, res, check=False)

    def lift_through(self, p, g) -> GModuleHom:
        """Equivariant lift: solve for the block units, extend by linearity."""
        pd, gd = self._hom(p), self._hom(g)
        r = gd.src.zg_rank
        if r is None:
            raise NotFree("equivariant lifts need a free source")
        n = self.G.order
        e = self.G.identity
        solver = ModSolver(pd.ab.matrix, pd.tgt.M.relations)
        x = solver.solve_matrix(
            gd.ab.matrix.take_cols([j * n + e for j in range(r)]))
        if x is None:
            raise NotEpi("map does not reach a unit image")
        units = [x.column_matrix(j) for j in range(r)]
        return self.extend_units(gd.src, pd.src, units)

    def hom_group(self, f, a) -> FreeHomGroup:
        if isinstance(f, GModule):
            if f.zg_rank is None:
                raise NotFree("hom_group source must be free")
            f = FreeGModule(self.G, f.zg_rank)
        a = self._obj(a)
        return FreeHomGroup(self, f, a, [a.M] * f.rank)

    def extend_units(self, free, a: GModule, units) -> GModuleHom:
        """Equivariant extension: the (j, h) basis element goes to h·units[j]."""
        src = self._obj(free)
        cols = [(act.matrix * u).col(0) for u in units for act in a.action]
        mat = IntMatrix.from_cols(cols, rows=a.M.gens)
        return GModuleHom(src, a, FpAbHom(src.M, a.M, mat, check=False),
                          check=False)

    def induced_precompose(self, hg_src: FreeHomGroup, hg_tgt: FreeHomGroup,
                           d) -> FpAbHom:
        # the t-th unit image of a precomposite is a signed sum of acted
        # unit images of the input cochain
        acts = hg_src.module.action
        terms = ((t, i, c, acts[g].matrix)
                 for t, col in enumerate(_zg_columns(d)) for (i, g, c) in col)
        m = resolution.unit_block_matrix(hg_src.stalks, hg_tgt.stalks, terms)
        return FpAbHom(hg_src.group, hg_tgt.group, m, check=False)


def gmodule_context(G: FiniteGroup) -> GModuleContext:
    return GModuleContext(G)


def _tuple_of(idx: int, base: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        out.append(idx % base)
        idx //= base
    return tuple(reversed(out))


def _index_of(t: Sequence[int], base: int) -> int:
    idx = 0
    for x in t:
        idx = idx * base + x
    return idx


def _resolution_of_z(G: FiniteGroup, frees, diffs) -> FreeResolution:
    """Trivial Z resolved by frees and diffs, augmented by summing."""
    src, triv = frees[0].dense(), trivial_module(G, free_abelian(1))
    mat = IntMatrix.from_rows([[1] * G.order], cols=G.order)
    aug = GModuleHom(src, triv, FpAbHom(src.M, triv.M, mat, check=False),
                     check=False)
    return FreeResolution(gmodule_context(G), triv, frees, diffs, aug)


def _bar_like_resolution(G: FiniteGroup, max_deg: int,
                         letters: Sequence[int]) -> FreeResolution:
    """Bar-type resolution of Z over ZG on tuples of the given letters.

    Degree k is free on the k-tuples of letters, indexed in mixed-radix
    order with the leading letter most significant.  The differential is
    the alternating face sum: the first face is twisted by the leading
    element, the middle faces multiply adjacent entries, the last face
    drops the tail.  A middle face whose product is not a letter is
    dropped, which is the degenerate face of the normalized complex.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    base = len(letters)
    pos = {g: i for i, g in enumerate(letters)}
    e = G.identity
    frees = [FreeGModule(G, base ** k) for k in range(max_deg + 1)]
    diffs = []
    for k in range(1, max_deg + 1):
        raw = []
        for idx in range(base ** k):
            t = _tuple_of(idx, base, k)
            terms = [(_index_of(t[1:], base), letters[t[0]], 1)]
            sign = -1
            for i in range(k - 1):
                prod = pos.get(G.table[letters[t[i]]][letters[t[i + 1]]])
                if prod is not None:
                    merged = t[:i] + (prod,) + t[i + 2:]
                    terms.append((_index_of(merged, base), e, sign))
                sign = -sign
            terms.append((_index_of(t[:-1], base), e, sign))
            raw.append(terms)
        diffs.append(ZGFreeHom.from_terms(G, frees[k], frees[k - 1], raw))
    return _resolution_of_z(G, frees, diffs)


def bar_resolution(G: FiniteGroup, max_deg: int) -> FreeResolution:
    """Unnormalized bar resolution of the trivial module Z over ZG.

    Degree n is free of rank |G|^n on the n-tuples of group elements,
    with the faces of _bar_like_resolution.  Kept as an oracle, like the
    normalized resolution, for the greedy one that group cohomology uses.
    """
    return _bar_like_resolution(G, max_deg, range(G.order))


def normalized_bar_resolution(G: FiniteGroup, max_deg: int) -> FreeResolution:
    """Normalized bar resolution of the trivial module Z over ZG.

    Degree n is free of rank (|G|-1)^n on the n-tuples of non-identity
    elements: the unnormalized bar complex modulo the degenerate tuples,
    so a middle face whose product is the identity vanishes.
    """
    letters = [g for g in range(G.order) if g != G.identity]
    return _bar_like_resolution(G, max_deg, letters)


def periodic_resolution(G: FiniteGroup, max_deg: int) -> FreeResolution:
    """The 2-periodic resolution of Z over ZG for a cyclic group.

    Rank one in every degree: multiplication by t - e and by the norm
    element alternate, starting with t - e into degree zero.  Entirely
    independent of the bar construction, which is what makes it a useful
    cross-check.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    n = G.order
    gen = next((g for g in range(n) if G.element_order(g) == n), None)
    if gen is None:
        raise ValueError("periodic resolution needs a cyclic group")
    e = G.identity
    free = FreeGModule(G, 1)
    tm1 = [(0, gen, 1), (0, e, -1)]
    norm = [(0, g, 1) for g in range(n)]
    diffs = [ZGFreeHom.from_terms(G, free, free,
                                  [tm1 if k % 2 == 1 else norm])
             for k in range(1, max_deg + 1)]
    return _resolution_of_z(G, [free] * (max_deg + 1), diffs)


def _from_cols(cols, height: int) -> IntMatrix:
    # trusted: int columns of the given height, all built right here
    return IntMatrix._wrap(height, len(cols),
                           tuple(zip(*cols)) or ((),) * height)


def greedy_resolution(G: FiniteGroup, max_deg: int,
                      max_cells: Optional[int] = None) -> FreeResolution:
    """A small free resolution of the trivial module Z over ZG (Ellis 2004).

    Degree k+1 covers the kernel of the dense matrix of d_k (of the
    augmentation for k = 0): each kernel_basis column, smallest absolute
    sum first to keep coefficients small, becomes a generator unless it
    lies in the Z-span of the G-translates of those kept before.  The
    translates then span the kernel, so the resolution is exact by
    construction, and they are the dense matrix of d_{k+1}.  ValueError
    comes before an elimination that takes the build past max_cells.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    n, table = G.order, G.table
    frees, diffs, spent = [FreeGModule(G, 1)], [], 0

    def charge(m: IntMatrix) -> IntMatrix:
        nonlocal spent
        spent += m.rows * m.cols
        if max_cells is not None and spent > max_cells:
            raise ValueError(f"resolution work is capped at {max_cells} matrix"
                             f" cells; degree {len(frees)} goes past it")
        return m

    dense = IntMatrix.from_rows([[1] * n], cols=n)
    for _ in range(max_deg):
        ker, height = kernel_basis(charge(dense)), dense.cols
        kept, span, solver = [], [], None
        for v in sorted(ker.transpose().data, key=lambda v: sum(map(abs, v))):
            if kept:
                solver = solver or SnfSolver(charge(_from_cols(span, height)))
                if solver.solve(_from_cols([v], height)) is not None:
                    continue
            solver = None
            kept.append([(i // n, i % n, c) for i, c in enumerate(v) if c])
            # span gains every translate: g moves (block, h) to (block, gh)
            span += [[0] * height for _ in range(n)]
            for g, w in enumerate(span[-n:]):
                for (b, h, c) in kept[-1]:
                    w[b * n + table[g][h]] = c
        frees.append(FreeGModule(G, len(kept)))
        diffs.append(ZGFreeHom(G, frees[-1], frees[-2], kept))
        dense = _from_cols(span, height)
    return _resolution_of_z(G, frees, diffs)


def group_cohomology(G: FiniteGroup, M: GModule, n: int) -> FpAbGroup:
    """H^n(G; M) as Ext over ZG of the trivial module.

    Computed through greedy_resolution; any projective resolution gives
    the same group.
    """
    if n < 0:
        raise ValueError("cohomology degree must be nonnegative")
    if M.G != G:
        raise IllDefined("module is over a different group")
    res = greedy_resolution(G, n + 1)
    return resolution.cohomology(resolution.hom_complex(res, M), n)


def fixed_points(m: GModule) -> Tuple[FpAbGroup, FpAbHom]:
    """The invariants M^G with their inclusion into M.

    Computed as the kernel of all action(g) - id stacked into one map.
    """
    n = m.G.order
    total, _ = fpab.direct_sum_many([m.M] * n)
    ident = IntMatrix.identity(m.M.gens)
    stacked = vstack(*[m.action[g].matrix - ident for g in range(n)])
    return fpab.kernel(FpAbHom(m.M, total, stacked, check=False))


def h1_crossed(G: FiniteGroup, m: GModule) -> FpAbGroup:
    """H^1 as crossed homomorphisms modulo principal ones.

    A cocycle assigns f(g) in M subject to f(gh) = f(g) + g·f(h); the
    principal ones are g ↦ g·x - x.  Presented directly as a constrained
    kernel with no resolution anywhere near it, so it can serve as an
    independent oracle for degree-one cohomology.
    """
    if m.G != G:
        raise IllDefined("module is over a different group")
    n = G.order
    a = m.M.gens
    ident = IntMatrix.identity(a)
    strips = []
    for g in range(n):
        for h in range(n):
            blocks = {}
            gh = G.table[g][h]
            blocks[gh] = blocks.get(gh, IntMatrix.zero(a, a)) + ident
            blocks[g] = blocks.get(g, IntMatrix.zero(a, a)) - ident
            blocks[h] = (blocks.get(h, IntMatrix.zero(a, a))
                         - m.action[g].matrix)
            strips.append(hstack(*[blocks.get(k, IntMatrix.zero(a, a))
                                   for k in range(n)]))
    cocycle = vstack(*strips)
    rel = m.M.relations
    mod_all = (block_diag(*([rel] * (n * n))) if rel.cols
               else IntMatrix.zero(n * n * a, 0))
    lattice = constrained_kernel(cocycle, mod_all)
    principal = vstack(*[m.action[g].matrix - ident for g in range(n)])
    mod_n = (block_diag(*([rel] * n)) if rel.cols
             else IntMatrix.zero(n * a, 0))
    boundary = hstack(mod_n, principal)
    return fpab.make_group(lattice.cols, constrained_kernel(lattice, boundary))


def ext_action(G: FiniteGroup, b: GModule, a: GModule,
               n: int = 1) -> GModule:
    """Ext^n_Z(B, A) with the G-action carried by functoriality.

    Element g acts by pushing forward along the action on A and pulling
    back along the inverse action on B, computed through class
    coordinates.  Over Z only degrees 0 and 1 can be nonzero; higher
    degrees return the honestly computed zero module with the only action
    it admits.
    """
    if b.G != G or a.G != G:
        raise IllDefined("modules live over a different group")
    if n < 0:
        raise ValueError("Ext degree must be nonnegative")
    if n == 0:
        hg = fpab.hom_group(b.M, a.M)
        acts = []
        for g in range(G.order):
            ginv = G.inverse[g]

            def conj(h, g=g, ginv=ginv):
                return fpab.compose(a.action[g],
                                    fpab.compose(h, b.action[ginv]))

            acts.append(fpab.induced_hom_group_map(hg, hg, conj))
        return GModule(G, hg.group, acts, check=True)
    if n == 1:
        ext = ext1_group(b.M, a.M)
        acts = []
        for g in range(G.order):
            push = ext1_pushforward(a.action[g], ext, ext)
            pull = ext1_pullback(b.action[G.inverse[g]], ext, ext)
            acts.append(fpab.compose(push, pull))
        return GModule(G, ext.group, acts, check=True)
    group = resolution.ext_n(resolution.z_context(), b.M, a.M, n)
    return trivial_module(G, group)
