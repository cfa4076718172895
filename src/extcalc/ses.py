"""Short exact sequences of finitely presented abelian groups.

Provides the extension calculus: validated short exact sequences, pushout
and pullback, Baer sum, equivalence testing, Ext^1 as a computed group with
class coordinates, and the two six-term exact sequences with an executable
exactness report.

Constructed extensions are carried by their cocycle (Mac Lane, Homology,
III): a matrix α from the relation columns of B to A, realized in the
normal form A -> (A ⊕ Z^gens(B)) / [[rel A, -α], [0, rel B]] -> B.  Pullbacks
and Baer sums keep gens(A) + gens(B) middle generators however they nest.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .exactint import (
    DimensionMismatch,
    IntMatrix,
    ModSolver,
    SnfSolver,
    block_diag,
    column_space_basis,
    hstack,
    kron,
    solve_mod,
    vstack,
)
from .fpab import (
    Element,
    FpAbGroup,
    FpAbHom,
    HomGroup,
    NotEpi,
    _unvec,
    _vec,
    compose,
    corestrict,
    describe,
    direct_sum_many,
    free_abelian,
    from_invariants,
    hom_group,
    identity_hom,
    induced_hom_group_map,
    is_epi,
    is_mono,
    kernel,
    make_group,
)


class NotMono(ValueError):
    """The left map of a would-be short exact sequence has a kernel."""


class NotExact(ValueError):
    """Image and kernel disagree at the middle of a would-be sequence."""


class ShortExactSeq:
    """A --i--> E --p--> B with i mono, p epi, im(i) = ker(p).

    The constructor trusts its maps: it serves the constructions below,
    which are exact by design.  Sequences from outside go through
    make_ses, which checks every axiom.
    """

    __slots__ = ("A", "E", "B", "i", "p")

    def __init__(self, i: FpAbHom, p: FpAbHom):
        self.A, self.E, self.B, self.i, self.p = i.src, i.tgt, p.tgt, i, p

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
    k, incl = kernel(p)
    try:
        corestrict(incl, i)
    except ValueError:
        raise NotExact("kernel of p is larger than the image of i") from None
    return ShortExactSeq(i, p)


def _cocycle(e: ShortExactSeq, g: IntMatrix,
             rel: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """(lift, α) with p·lift ≡ g mod rel(B) and i·α ≡ lift·rel mod rel(E).

    g sends the columns of rel to zero in B, so lift·rel lies in ker p = im i.
    """
    lift = ModSolver(e.p.matrix, e.B.relations).solve_matrix(g)
    return lift, ModSolver(e.i.matrix, e.E.relations).solve_matrix(lift * rel)


def _extension(a: FpAbGroup, b: FpAbGroup, alpha: IntMatrix) -> ShortExactSeq:
    """A -> (A ⊕ Z^gens(B)) / [[rel A, -α], [0, rel B]] -> B, i and p the blocks.

    Exact for a cocycle α (from _cocycle(e, g, rel(B)), a sum of such, or 0):
    if x = rel(B)·y is zero in B then (a, x) ≡ (a + α·y, 0); rel(B)·y = 0
    gives i·α·y ≡ lift·0, so α·y ≡ 0.  (e, b') ↦ (i⁻¹(e - lift·x), x), x
    representing b', is an equivalence from the pullback of e along g.
    """
    na, nb, zero = a.gens, b.gens, IntMatrix.zero
    mid = make_group(na + nb, hstack(vstack(a.relations, zero(nb, a.relations.cols)),
                                     vstack(-alpha, b.relations)))
    i = FpAbHom(a, mid, vstack(IntMatrix.identity(na), zero(nb, na)), check=False)
    p = FpAbHom(mid, b, hstack(zero(nb, na), IntMatrix.identity(nb)), check=False)
    return ShortExactSeq(i, p)


def split_ses(a: FpAbGroup, b: FpAbGroup) -> ShortExactSeq:
    return _extension(a, b, IntMatrix.zero(a.gens, b.relations.cols))


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
        sys_rows.append(kron(rel_ee.transpose(), IntMatrix.identity(fe)))
        rhs_rows.append(IntMatrix.zero(fe * rel_ee.cols, 1))
        mod_blocks.extend([rel_fe] * rel_ee.cols)
    sys_rows.append(kron(e.i.matrix.transpose(), IntMatrix.identity(fe)))
    rhs_rows.append(_vec(f.i.matrix * alpha.matrix))
    mod_blocks.extend([rel_fe] * e.A.gens)
    sys_rows.append(kron(IntMatrix.identity(ee), f.p.matrix))
    rhs_rows.append(_vec(beta.matrix * e.p.matrix))
    mod_blocks.extend([f.B.relations] * ee)
    big = vstack(*sys_rows)
    rhs = vstack(*rhs_rows)
    rel = block_diag(*mod_blocks)
    x = solve_mod(big, rhs, rel)
    if x is None:
        return None
    return FpAbHom(e.E, f.E, _unvec(x, fe, ee), check=False)


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

    With (lift, α) the cocycle of e along id_B, the sections are lift - i·T
    for T·rel(B) ≡ α mod rel(A); are_equivalent(e, split_ses(A, B)) is the oracle.
    """
    a, b = e.A, e.B
    lift, alpha = _cocycle(e, IntMatrix.identity(b.gens), b.relations)
    t = solve_mod(kron(b.relations.transpose(), IntMatrix.identity(a.gens)),
                  _vec(alpha), block_diag(*[a.relations] * b.relations.cols))
    return None if t is None else \
        FpAbHom(b, e.E, lift - e.i.matrix * _unvec(t, a.gens, b.gens), check=False)


def pushout_ses(f: FpAbHom, e: ShortExactSeq) -> ShortExactSeq:
    """Pushout of e along f : A -> A'.

    The middle group is (A' ⊕ E)/⟨(f(a), −i(a))⟩, presented directly by
    adjoining those columns to the block relations.  The result is exact
    whenever e is, so it is built unchecked.
    """
    if f.src != e.A:
        raise DimensionMismatch("pushout map must start at the kernel group")
    a2, mid = f.tgt, e.E
    glue = vstack(f.matrix, -e.i.matrix)
    pushed = make_group(a2.gens + mid.gens,
                        hstack(block_diag(a2.relations, mid.relations), glue))
    i2 = FpAbHom(a2, pushed,
                 vstack(IntMatrix.identity(a2.gens),
                        IntMatrix.zero(mid.gens, a2.gens)), check=False)
    p2 = FpAbHom(pushed, e.B,
                 hstack(IntMatrix.zero(e.B.gens, a2.gens), e.p.matrix),
                 check=False)
    return ShortExactSeq(i2, p2)


def pushout_middle_map(f: FpAbHom, e: ShortExactSeq,
                       pushed: ShortExactSeq) -> FpAbHom:
    """The canonical E -> pushout middle map (second block inclusion)."""
    return FpAbHom(e.E, pushed.E,
                   vstack(IntMatrix.zero(f.tgt.gens, e.E.gens),
                          IntMatrix.identity(e.E.gens)), check=False)


def pullback_ses(g: FpAbHom, e: ShortExactSeq) -> ShortExactSeq:
    """Pullback of e along g : B' -> B, in normal form over B'."""
    if g.tgt != e.B:
        raise DimensionMismatch("pullback map must land in the quotient group")
    return _extension(e.A, g.src, _cocycle(e, g.matrix, g.src.relations)[1])


def baer_sum(e: ShortExactSeq, f: ShortExactSeq) -> ShortExactSeq:
    """Group law on extensions: cocycles along id_B add."""
    if e.A != f.A or e.B != f.B:
        raise DimensionMismatch("Baer sum needs matching endpoints")
    ident, rel = IntMatrix.identity(e.B.gens), e.B.relations
    return _extension(e.A, e.B, _cocycle(e, ident, rel)[1] + _cocycle(f, ident, rel)[1])


class Ext1Group:
    """Ext¹(B, A) with coordinates tied to a fixed free presentation of B.

    The presentation is K --incl--> F --q--> B with F free on B's
    generators, q the canonical cover, and K a basis for the relation
    lattice.  Classes live in Hom(K, A) modulo restrictions of Hom(F, A)
    and modulo A's own relations, all flattened to one presented group.
    """

    __slots__ = ("B", "A", "group", "k_incl", "cover", "_base")

    def __init__(self, b: FpAbGroup, a: FpAbGroup):
        self.B = b
        self.A = a
        self.k_incl = column_space_basis(b.relations)
        free_b = free_abelian(b.gens)
        self.cover = FpAbHom(free_b, b, IntMatrix.identity(b.gens), check=False)
        kb, na = self.k_incl.cols, a.gens
        restriction = kron(self.k_incl.transpose(), IntMatrix.identity(na))
        rel_blocks = block_diag(*([a.relations] * kb)) if kb else IntMatrix.zero(0, 0)
        self.group = make_group(kb * na, hstack(rel_blocks, restriction))
        self._check_against_invariant_formula()
        self._base = None

    def _check_against_invariant_formula(self):
        predicted = []
        ra, fa = self.A.canonical_form
        for d in self.B.invariant_factors:
            # A/dA for A = Z^ra ⊕ (⊕ Z/e)
            facs = [d] * ra + [math.gcd(e, d) for e in fa]
            predicted.append(from_invariants(0, [x for x in facs if x > 1]))
        total, _ = direct_sum_many(predicted)
        if total.canonical_form != self.group.canonical_form:
            raise RuntimeError("Ext¹ presentation disagrees with the "
                               "invariant-factor formula")

    def canonical_presentation(self) -> ShortExactSeq:
        """The reference sequence K -> F -> B for class coordinates; built once, shared.

        Exact by construction: K is a basis of the relation lattice of B.
        """
        if self._base is None:
            k_free = free_abelian(self.k_incl.cols)
            incl = FpAbHom(k_free, self.cover.src, self.k_incl, check=False)
            self._base = ShortExactSeq(incl, self.cover)
        return self._base

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
    """Coordinates of a sequence's class in the computed Ext¹ group.

    The coordinate vector is the matrix of the cocycle K -> A of e along
    the canonical cover F -> B, on the relation lattice K.
    """
    if e.A != g.A or e.B != g.B:
        raise DimensionMismatch("sequence endpoints do not match the Ext group")
    alpha = _cocycle(e, g.cover.matrix, g.k_incl)[1]
    return ExtClass(g, Element(g.group, _vec(alpha)))


def realize_class(cls: ExtClass) -> ShortExactSeq:
    """Some sequence with the given class: pushout of the reference one.

    Representatives are not canonical; only the class is, and
    class_of(realize_class(c)) == c.
    """
    g = cls.parent
    base = g.canonical_presentation()
    psi = FpAbHom(base.A, g.A,
                  _unvec(cls.coords.coords, g.A.gens, g.k_incl.cols), check=False)
    return pushout_ses(psi, base)


def ext1_pushforward(f: FpAbHom, src: Ext1Group, tgt: Ext1Group) -> FpAbHom:
    """Map Ext¹(B, A) -> Ext¹(B, A') induced by f : A -> A'."""
    if f.src != src.A or f.tgt != tgt.A or src.B != tgt.B:
        raise DimensionMismatch("pushforward endpoints do not match")
    kb = src.k_incl.cols
    return FpAbHom(src.group, tgt.group,
                   kron(IntMatrix.identity(kb), f.matrix), check=True)


def ext1_pullback(g: FpAbHom, src: Ext1Group, tgt: Ext1Group) -> FpAbHom:
    """Map Ext¹(B, A) -> Ext¹(B', A) induced by g : B' -> B.

    Lifts g to the free covers (the identity matrices make the lift just
    g's own matrix) and solves for the induced map between relation
    lattices, which is exact since k_incl columns are a lattice basis.
    """
    if g.tgt != src.B or g.src != tgt.B or src.A != tgt.A:
        raise DimensionMismatch("pullback endpoints do not match")
    mu = SnfSolver(src.k_incl).solve_matrix(g.matrix * tgt.k_incl)
    if mu is None:
        raise RuntimeError("relation lattice is not preserved by the lift")
    na = src.A.gens
    return FpAbHom(src.group, tgt.group,
                   kron(mu.transpose(), IntMatrix.identity(na)), check=True)


class SixTermReport:
    """Exactness verdicts for a computed six-term sequence."""

    __slots__ = ("left_exact", "interior", "right_exact")

    def __init__(self, left_exact: bool, interior: List[bool], right_exact: bool):
        self.left_exact = left_exact
        self.interior = interior
        self.right_exact = right_exact

    def all_exact(self) -> bool:
        return self.left_exact and all(self.interior) and self.right_exact


def _exact_at(f_in: FpAbHom, f_out: FpAbHom) -> bool:
    """im(f_in) = ker(f_out) inside their shared middle group."""
    if not compose(f_out, f_in).is_zero():
        return False
    k, incl = kernel(f_out)
    mid = f_in.tgt
    return ModSolver(f_in.matrix, mid.relations).solve_matrix(incl.matrix) is not None


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
    if variance == "covariant":
        hg0, hg1, hg2 = hom_group(m, e.A), hom_group(m, e.E), hom_group(m, e.B)
        x0, x1, x2 = ext1_group(m, e.A), ext1_group(m, e.E), ext1_group(m, e.B)
        m0 = induced_hom_group_map(hg0, hg1, lambda h: compose(e.i, h))
        m1 = induced_hom_group_map(hg1, hg2, lambda h: compose(e.p, h))
        delta = _connecting(hg2, x0, lambda h: class_of(pullback_ses(h, e), x0))
        e0 = ext1_pushforward(e.i, x0, x1)
        e1 = ext1_pushforward(e.p, x1, x2)
    else:
        hg0, hg1, hg2 = hom_group(e.B, m), hom_group(e.E, m), hom_group(e.A, m)
        x0, x1, x2 = ext1_group(e.B, m), ext1_group(e.E, m), ext1_group(e.A, m)
        m0 = induced_hom_group_map(hg0, hg1, lambda h: compose(h, e.p))
        m1 = induced_hom_group_map(hg1, hg2, lambda h: compose(h, e.i))
        delta = _connecting(hg2, x0, lambda h: class_of(pushout_ses(h, e), x0))
        e0 = ext1_pullback(e.p, x0, x1)
        e1 = ext1_pullback(e.i, x1, x2)
    groups = [hg0.group, hg1.group, hg2.group, x0.group, x1.group, x2.group]
    maps = [m0, m1, delta, e0, e1]
    report = SixTermReport(
        left_exact=is_mono(m0),
        interior=[_exact_at(maps[k], maps[k + 1]) for k in range(4)],
        right_exact=is_epi(e1),
    )
    return groups, maps, report


def _connecting(src: HomGroup, tgt: Ext1Group, transform) -> FpAbHom:
    cols = [transform(h).coords.coords.col(0) for h in src.basis]
    return FpAbHom(src.group, tgt.group,
                   IntMatrix.from_cols(cols, rows=tgt.group.gens), check=True)
