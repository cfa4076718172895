"""Short exact sequences of finitely presented abelian groups.

Provides the extension calculus: validated short exact sequences, pushout
and pullback, Baer sum, equivalence testing, Ext^1 as a computed group with
class coordinates, and the two six-term exact sequences with an executable
exactness report.

Every sequence holds its cocycle α (Mac Lane, Homology, III.1), a matrix
to A from K = B.echelon_matrix(), a basis of B's relation lattice.  Pushout
(f·α), pullback (α·S), Baer sum (α_e + α_f) and class coordinates (vec α)
are arithmetic on α, and every construction returns the normal form of
_extension, with gens(A) + gens(B) middle generators however they nest.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import List, Optional, Tuple

from .exactint import (
    DimensionMismatch,
    IntMatrix,
    block_diag,
    hstack,
    solve_mod,
    vstack,
)
from .fpab import (
    Element,
    FpAbGroup,
    FpAbHom,
    NotEpi,
    _invariant_chain,
    _unvec,
    _vec,
    apply_blockwise,
    compose,
    describe,
    hom_group,
    identity_hom,
    induced_hom_group_map,
    is_epi,
    is_exact_at,
    is_mono,
    make_group,
    precompose,
)


class NotMono(ValueError):
    """The left map of a would-be short exact sequence has a kernel."""


class NotExact(ValueError):
    """Image and kernel disagree at the middle of a would-be sequence."""


class ShortExactSeq:
    """A --i--> E --p--> B with i mono, p epi, im(i) = ker(p).

    `pair` is (lift, α) along id_B: p·lift ≡ id mod rel(B) and
    i·α ≡ lift·K mod rel(E), K = B.echelon_matrix().  A sequence is given
    by i and p (from make_ses, which checks every axiom) or by its pair
    alone (a normal form, exact by design); what is missing is built on
    first read.
    """

    __slots__ = ("A", "B", "_i", "_p", "_pair")

    def __init__(self, a: FpAbGroup, b: FpAbGroup, i: Optional[FpAbHom] = None,
                 p: Optional[FpAbHom] = None, pair=None):
        self.A, self.B = a, b
        self._i, self._p, self._pair = i, p, pair

    pair = property(lambda self: self._pair or self._solve_pair())
    E = property(lambda self: self.i.tgt)
    i = property(lambda self: self._i or self._normal_form()[0])
    p = property(lambda self: self._p or self._normal_form()[1])

    def _solve_pair(self):
        # id_B kills K, so lift·K lies in ker p = im i
        lift = self.p.solver.solve_matrix(IntMatrix.identity(self.B.gens))
        self._pair = lift, self.i.solver.solve_matrix(lift * self.B.echelon_matrix())
        return self._pair

    def _normal_form(self):
        a, b, zero, one = self.A, self.B, IntMatrix.zero, IntMatrix.identity
        na, nb = a.gens, b.gens
        e = make_group(na + nb, hstack(
            vstack(a.relations, zero(nb, a.relations.cols)),
            vstack(-self.pair[1], b.echelon_matrix())))
        self._i = FpAbHom(a, e, vstack(one(na), zero(nb, na)), check=False)
        self._p = FpAbHom(e, b, hstack(zero(nb, na), one(nb)), check=False)
        return self._i, self._p

    def __repr__(self):
        return (f"ShortExactSeq({describe(self.A)} -> {describe(self.E)}"
                f" -> {describe(self.B)})")


def make_ses(i: FpAbHom, p: FpAbHom) -> ShortExactSeq:
    """Validated sequence; names the failed axiom when rejecting."""
    if i.tgt != p.src:
        raise DimensionMismatch("middle groups of i and p differ")
    if not is_mono(i):
        raise NotMono("left map has nontrivial kernel")
    if not is_epi(p):
        raise NotEpi("right map is not surjective")
    if not compose(p, i).is_zero():
        raise NotExact("composite p∘i is nonzero")
    if not is_exact_at(i, p):
        raise NotExact("kernel of p is larger than the image of i")
    return ShortExactSeq(i.src, p.tgt, i, p)


def _extension(a: FpAbGroup, b: FpAbGroup, alpha: IntMatrix) -> ShortExactSeq:
    """A -> (A ⊕ Z^gens(B)) / [[rel A, -α], [0, K]] -> B, i and p the blocks.

    Exact for every α, as K = B.echelon_matrix() is a basis: if x = K·y is
    zero in B then (a, x) ≡ (a + α·y, 0), and K·y = 0 only for y = 0.  Its
    pair is ([0; I], α); (e, x) ↦ (i⁻¹(e - lift·x), x) maps any sequence
    with cocycle α to it.  E, i and p are built only when read.
    """
    lift = vstack(IntMatrix.zero(a.gens, b.gens), IntMatrix.identity(b.gens))
    return ShortExactSeq(a, b, pair=(lift, alpha))


def split_ses(a: FpAbGroup, b: FpAbGroup) -> ShortExactSeq:
    return _extension(a, b, IntMatrix.zero(a.gens, b.echelon_matrix().cols))


def morphism_between(e: ShortExactSeq, f: ShortExactSeq,
                     alpha: FpAbHom, beta: FpAbHom) -> Optional[FpAbHom]:
    """Middle map μ of a morphism of sequences (alpha, μ, beta), if any.

    Solves μ∘i_E = i_F∘alpha and p_F∘μ = beta∘p_E together with
    well-definedness as one linear system in the entries of μ.
    """
    if alpha.src != e.A or alpha.tgt != f.A:
        raise DimensionMismatch("alpha endpoints do not match")
    if beta.src != e.B or beta.tgt != f.B:
        raise DimensionMismatch("beta endpoints do not match")
    ee, fe = e.E.gens, f.E.gens
    rel_ee, rel_fe = e.E.relations, f.E.relations
    sys_rows, rhs_rows, mod_blocks = [], [], []
    if rel_ee.cols:
        sys_rows.append(precompose(rel_ee, f.E))
        rhs_rows.append(IntMatrix.zero(fe * rel_ee.cols, 1))
        mod_blocks.extend([rel_fe] * rel_ee.cols)
    sys_rows.append(precompose(e.i.matrix, f.E))
    rhs_rows.append(_vec(f.i.matrix * alpha.matrix))
    mod_blocks.extend([rel_fe] * e.A.gens)
    sys_rows.append(block_diag(*[f.p.matrix] * ee))
    rhs_rows.append(_vec(beta.matrix * e.p.matrix))
    mod_blocks.extend([f.B.relations] * ee)
    x = solve_mod(vstack(*sys_rows), vstack(*rhs_rows), block_diag(*mod_blocks))
    return None if x is None else FpAbHom(e.E, f.E, _unvec(x, fe, ee), check=False)


def are_equivalent(e: ShortExactSeq, f: ShortExactSeq) -> Optional[FpAbHom]:
    """Equivalence witness between sequences with identical endpoints.

    Any middle map commuting with identities on both ends is automatically
    an isomorphism; that is re-checked on the witness before returning it.
    """
    if e.A != f.A or e.B != f.B:
        raise DimensionMismatch("sequences do not share endpoints")
    phi = morphism_between(e, f, identity_hom(e.A), identity_hom(e.B))
    if phi is None:
        return None
    if not (is_mono(phi) and is_epi(phi)):
        raise RuntimeError("five-lemma violation: witness is not an isomorphism")
    return phi


def is_split(e: ShortExactSeq) -> Optional[FpAbHom]:
    """A section s with p∘s = id_B, when one exists, by one solve.

    With (lift, α) the pair of e, the sections are lift - i·T for
    T·K ≡ α mod rel(A); are_equivalent(e, split_ses(A, B)) is the oracle.
    """
    a, b, k = e.A, e.B, e.B.echelon_matrix()
    lift, alpha = e.pair
    t = solve_mod(precompose(k, a), _vec(alpha),
                  block_diag(*[a.relations] * k.cols))
    return None if t is None else \
        FpAbHom(b, e.E, lift - e.i.matrix * _unvec(t, a.gens, b.gens), check=False)


def pushout_ses(f: FpAbHom, e: ShortExactSeq) -> ShortExactSeq:
    """Pushout of e along f : A -> A', in normal form: its cocycle is f·α."""
    if f.src != e.A:
        raise DimensionMismatch("pushout map must start at the kernel group")
    return _extension(f.tgt, e.B, f.matrix * e.pair[1])


def pushout_middle_map(f: FpAbHom, e: ShortExactSeq,
                       pushed: ShortExactSeq) -> FpAbHom:
    """The canonical map E -> pushed.E, for pushed = pushout_ses(f, e).

    It is [f·σ; p] with i·σ ≡ id - lift·p mod rel(E), one solve (p kills
    id - lift·p), so it sends i to i'∘f and commutes with the projections.
    """
    lift = e.pair[0]
    rhs = IntMatrix.identity(e.E.gens) - lift * e.p.matrix
    sigma = e.i.solver.solve_matrix(rhs)
    return FpAbHom(e.E, pushed.E, vstack(f.matrix * sigma, e.p.matrix), check=False)


def pullback_ses(g: FpAbHom, e: ShortExactSeq) -> ShortExactSeq:
    """Pullback of e along g : B' -> B, in normal form: its cocycle is α·S.

    One solve, K·S = g·K' on the echelon bases of B and B'; then
    lift·g·K' ≡ i·α·S.
    """
    if g.tgt != e.B:
        raise DimensionMismatch("pullback map must land in the quotient group")
    s = e.B.solver.solve_matrix(g.matrix * g.src.echelon_matrix())
    return _extension(e.A, g.src, e.pair[1] * s)


def baer_sum(e: ShortExactSeq, f: ShortExactSeq) -> ShortExactSeq:
    """Group law on extensions: cocycles along id_B add."""
    if e.A != f.A or e.B != f.B:
        raise DimensionMismatch("Baer sum needs matching endpoints")
    return _extension(e.A, e.B, e.pair[1] + f.pair[1])


class Ext1Group:
    """Ext¹(B, A) with coordinates tied to a fixed free presentation of B.

    The presentation is K --incl--> F --q--> B with F free on B's
    generators, q the canonical cover, and K = B.echelon_matrix(), a basis
    of the relation lattice.  Classes are cocycles K -> A, the α every
    sequence holds, modulo restrictions of Hom(F, A) and modulo A's own
    relations, all flattened to one presented group: a class's
    coordinates are vec(α).  B's solver serves every solve against K.
    """

    __slots__ = ("B", "A", "group", "k_incl")

    def __init__(self, b: FpAbGroup, a: FpAbGroup):
        self.B = b
        self.A = a
        self.k_incl = b.echelon_matrix()
        kb, na = self.k_incl.cols, a.gens
        restriction = precompose(self.k_incl, a)
        rel_blocks = block_diag(*[a.relations] * kb)
        self.group = make_group(kb * na, hstack(rel_blocks, restriction))
        self._check_against_invariant_formula()

    def _check_against_invariant_formula(self):
        # Ext¹(⊕ Z/d, A) = ⊕ A/dA, and A/dA = (Z/d)^ra ⊕ (⊕ Z/gcd(e, d))
        ra, fa = self.A.canonical_form
        facs = [x for d in self.B.invariant_factors
                for x in [d] * ra + [math.gcd(e, d) for e in fa]]
        if (0, _invariant_chain(facs)) != self.group.canonical_form:
            raise RuntimeError("Ext¹ presentation disagrees with the "
                               "invariant-factor formula")

    def class_element(self, coords: IntMatrix) -> "ExtClass":
        return ExtClass(self, Element(self.group, coords))

    def zero_class(self) -> "ExtClass":
        return ExtClass(self, self.group.zero())


class ExtClass:
    """An element of a computed Ext¹ group."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: Ext1Group, coords: Element):
        if coords.group != parent.group:
            raise DimensionMismatch("coordinates are not in the Ext group")
        self.parent = parent
        self.coords = coords

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def __add__(self, other: "ExtClass") -> "ExtClass":
        if other.parent is not self.parent and other.parent.group != self.parent.group:
            raise DimensionMismatch("classes from different Ext groups")
        return ExtClass(self.parent, self.coords + other.coords)

    def __neg__(self) -> "ExtClass":
        return ExtClass(self.parent, -self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtClass) and self.parent.B == other.parent.B
                and self.parent.A == other.parent.A and self.coords == other.coords)

    def __hash__(self):
        return hash((self.parent.B, self.parent.A, self.coords))

    def __repr__(self):
        return f"ExtClass({tuple(r[0] for r in self.coords.coords.data)})"


def ext1_group(b: FpAbGroup, a: FpAbGroup) -> Ext1Group:
    return Ext1Group(b, a)


def class_of(e: ShortExactSeq, g: Ext1Group) -> ExtClass:
    """Coordinates of a sequence's class in the computed Ext¹ group: its
    cocycle α on K, flattened."""
    if e.A != g.A or e.B != g.B:
        raise DimensionMismatch("sequence endpoints do not match the Ext group")
    return ExtClass(g, Element(g.group, _vec(e.pair[1])))


def realize_class(cls: ExtClass) -> ShortExactSeq:
    """Some sequence with the given class, with no solve: the normal form
    whose cocycle ψ is the class's coordinates, unflattened.

    Representatives are not canonical; only the class is, and
    class_of(realize_class(c)) == c.
    """
    g = cls.parent
    return _extension(g.A, g.B, _unvec(cls.coords.coords, g.A.gens, g.k_incl.cols))


def ext1_pushforward(f: FpAbHom, src: Ext1Group, tgt: Ext1Group) -> FpAbHom:
    """Map Ext¹(B, A) -> Ext¹(B, A') induced by f : A -> A'."""
    if f.src != src.A or f.tgt != tgt.A or src.B != tgt.B:
        raise DimensionMismatch("pushforward endpoints do not match")
    return FpAbHom(src.group, tgt.group,
                   block_diag(*[f.matrix] * src.k_incl.cols), check=True)


def ext1_pullback(g: FpAbHom, src: Ext1Group, tgt: Ext1Group) -> FpAbHom:
    """Map Ext¹(B, A) -> Ext¹(B', A) induced by g : B' -> B.

    Lifts g to the free covers (the identity matrices make the lift just
    g's own matrix) and solves for the induced map between relation
    lattices, which is exact since k_incl columns are a lattice basis.
    """
    if g.tgt != src.B or g.src != tgt.B or src.A != tgt.A:
        raise DimensionMismatch("pullback endpoints do not match")
    mu = src.B.solver.solve_matrix(g.matrix * tgt.k_incl)
    if mu is None:
        raise RuntimeError("relation lattice is not preserved by the lift")
    return FpAbHom(src.group, tgt.group, precompose(mu, src.A), check=True)


class SixTermReport:
    """Exactness verdicts for a computed six-term sequence."""

    __slots__ = ("left_exact", "interior", "right_exact")

    def __init__(self, left_exact: bool, interior: List[bool], right_exact: bool):
        self.left_exact = left_exact
        self.interior = interior
        self.right_exact = right_exact

    def all_exact(self) -> bool:
        return self.left_exact and all(self.interior) and self.right_exact


def six_term(e: ShortExactSeq, m: FpAbGroup, variance: str
             ) -> Tuple[List[FpAbGroup], List[FpAbHom], SixTermReport]:
    """Hom/Ext six-term sequence of e against m, with exactness checked.

    Covariant: Hom(M,A) -> Hom(M,E) -> Hom(M,B) -> Ext¹(M,A) -> Ext¹(M,E)
    -> Ext¹(M,B), connecting a map f to the class of the pullback of e
    along f.  Contravariant: Hom(B,M) -> Hom(E,M) -> Hom(A,M) -> Ext¹(B,M)
    -> Ext¹(E,M) -> Ext¹(A,M), connecting g to the class of the pushout
    along g.  Injectivity is checked on the left, surjectivity on the
    right (integer coefficients leave nothing beyond Ext¹).
    """
    if variance not in ("covariant", "contravariant"):
        raise ValueError("variance must be covariant or contravariant")
    alpha = e.pair[1]
    if variance == "covariant":
        hg0, hg1, hg2 = hom_group(m, e.A), hom_group(m, e.E), hom_group(m, e.B)
        x0, x1, x2 = ext1_group(m, e.A), ext1_group(m, e.E), ext1_group(m, e.B)
        m0 = induced_hom_group_map(hg0, hg1, left=e.i.matrix)
        m1 = induced_hom_group_map(hg1, hg2, left=e.p.matrix)
        # pullback along f: α·t with K·t = f·K_M on the echelon bases
        nb, kb, k = e.B.gens, x0.k_incl.cols, hg2.lattice.cols
        fk = apply_blockwise(hg2.lattice, nb, m.gens, right=x0.k_incl).data
        t = e.B.solver.solve_matrix(IntMatrix._wrap(nb, kb * k, tuple(
            tuple(chain.from_iterable(fk[c * nb + i] for c in range(kb)))
            for i in range(nb))))  # the kb blocks of f·K side by side
        at = (alpha * t).data
        delta = IntMatrix._wrap(e.A.gens * kb, k, tuple(
            r[c * k:(c + 1) * k] for c in range(kb) for r in at))
        e0 = ext1_pushforward(e.i, x0, x1)
        e1 = ext1_pushforward(e.p, x1, x2)
    else:
        hg0, hg1, hg2 = hom_group(e.B, m), hom_group(e.E, m), hom_group(e.A, m)
        x0, x1, x2 = ext1_group(e.B, m), ext1_group(e.E, m), ext1_group(e.A, m)
        m0 = induced_hom_group_map(hg0, hg1, right=e.p.matrix)
        m1 = induced_hom_group_map(hg1, hg2, right=e.i.matrix)
        delta = apply_blockwise(hg2.lattice, m.gens, e.A.gens, right=alpha)
        e0 = ext1_pullback(e.p, x0, x1)
        e1 = ext1_pullback(e.i, x1, x2)
    delta = FpAbHom(hg2.group, x0.group, x0.group.reduce(delta), check=True)
    groups = [hg0.group, hg1.group, hg2.group, x0.group, x1.group, x2.group]
    maps = [m0, m1, delta, e0, e1]
    report = SixTermReport(
        left_exact=is_mono(m0),
        interior=[is_exact_at(maps[j], maps[j + 1]) for j in range(4)],
        right_exact=is_epi(e1),
    )
    return groups, maps, report

