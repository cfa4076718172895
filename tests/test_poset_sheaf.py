"""Presheaves on finite posets: hom groups, internal hom, sheaf Ext.

Oracle layout: the evaluation law Hom(ZY(c), F) = F(c) and the limit
description of global sections are computed through two independent
presentations and compared; the Sierpinski chain values are frozen from
hand computation (resolution ZY(1), ZY(0)+ZY(1), ZY(0), Ext^2 stalk Z/2
at the top, zero at the bottom); the fast and general sheaf Ext paths
cross-check each other on every site where both apply; external Ext
agrees with the cohomology of the nerve (oracles.nerve_ext) for Z-free B.
"""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from extcalc import fpab, resolution
from extcalc import poset_sheaf as ps
from extcalc.exactint import IntMatrix
from oracles import nerve_ext, nerve_ext_table
from extcalc.fpab import (
    IllDefined,
    NotEpi,
    NotFree,
    free_abelian,
    identity_hom,
    make_group,
    zmod,
)
from extcalc.poset_sheaf import (
    AbPresheaf,
    FinitePoset,
    FreePresheaf,
    PosetError,
    PresheafHom,
    SiteMismatch,
    bowtie,
    chain,
    external_ext,
    external_ext_table,
    free_presheaf,
    global_sections,
    internal_hom,
    internal_projectivity_witness,
    make_poset,
    presheaf_context,
    presheaf_hom_group,
    principal_intersection_check,
    sections,
    sheaf_ext,
    sheaf_ext_table,
    witness_search,
    zero_presheaf,
)

ZERO = make_group(0)


def sierpinski():
    return chain(2)


def sierpinski_quotient():
    """Stalk Z/2 at the top, zero below: the running coefficient presheaf."""
    s = sierpinski()
    return AbPresheaf(s, [ZERO, zmod(2)], {(0, 1): fpab.zero_hom(zmod(2), ZERO)})


def diamond():
    # z below a and b, both below t; down-sets of a and b meet in {z}
    return make_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def constant_presheaf(site, group):
    res = {(d, c): identity_hom(group) for (d, c) in site.strict_pairs()}
    return AbPresheaf(site, [group] * site.size, res)


_STALK_POOL = (
    ZERO,
    free_abelian(1),
    zmod(2),
    zmod(4),
    zmod(6),
    make_group(2, IntMatrix.from_cols([[2, 0]])),
)


def random_hom(rng, a, b):
    hg = fpab.hom_group(a, b)
    if hg.group.gens == 0:
        return fpab.zero_hom(a, b)
    coords = IntMatrix.column([rng.randrange(-2, 3)
                               for _ in range(hg.group.gens)])
    return hg.hom_of(coords)


def random_tree_presheaf(rng, parents):
    """Random presheaf on the ancestor order of a rooted tree.

    Restrictions are drawn edgewise and composed along the unique paths,
    so functoriality holds by construction and the validating constructor
    only confirms it.
    """
    n = len(parents)
    site = make_poset(n, [(p, i) for i, p in enumerate(parents)
                          if p is not None])
    stalks = [rng.choice(_STALK_POOL) for _ in range(n)]
    edge = {}
    for i, p in enumerate(parents):
        if p is not None:
            edge[(p, i)] = random_hom(rng, stalks[i], stalks[p])
    res = {}
    for (d, c) in site.strict_pairs():
        h = identity_hom(stalks[c])
        x = c
        while x != d:
            h = fpab.compose(edge[(parents[x], x)], h)
            x = parents[x]
        res[(d, c)] = h
    return AbPresheaf(site, stalks, res)


def random_cokernel_presheaf(rng, site):
    """Random presheaf on any site: the stalkwise cokernel of a random map
    between sums of representables, on the target's coordinates."""
    ctx = presheaf_context(site)
    src = FreePresheaf(site, [rng.randrange(site.size)
                              for _ in range(rng.randint(0, 4))])
    tgt = FreePresheaf(site, [rng.randrange(site.size)
                              for _ in range(rng.randint(1, 4))])
    units = [IntMatrix.column([rng.randint(-3, 3)
                               for _ in range(tgt.stalk(l).gens)])
             for l in src.labels]
    f = ctx.extend_units(src, tgt, units)
    stalks = [make_group(tgt.stalk(x).gens, f.components[x].matrix)
              for x in site.elements()]
    res = {(d, c): fpab.FpAbHom(stalks[c], stalks[d], h.matrix)
           for (d, c), h in tgt.maps.items()}
    return AbPresheaf(site, stalks, res)


def assert_paths_agree(b, a, n):
    """Fast and general sheaf Ext give the same presheaf up to isomorphism:
    stalks, limits, and kernels and cokernels of every restriction."""
    fast = sheaf_ext(b, a, n, method="fast")
    gen = sheaf_ext(b, a, n, method="general")
    for c in b.site.elements():
        assert fast.stalk(c).canonical_form == gen.stalk(c).canonical_form
    assert (global_sections(fast.presheaf).canonical_form
            == global_sections(gen.presheaf).canonical_form)
    for pair in b.site.strict_pairs():
        fm, gm = fast.presheaf.maps[pair], gen.presheaf.maps[pair]
        assert (fpab.kernel(fm)[0].canonical_form
                == fpab.kernel(gm)[0].canonical_form)
        assert (fpab.cokernel(fm)[0].canonical_form
                == fpab.cokernel(gm)[0].canonical_form)


CHAIN4 = [None, 0, 1, 2]
TREE5 = [None, 0, 0, 1, 1]
TREE6 = [None, 0, 0, 1, 1, 2]


class TestPosetLaws:

    def test_chain_relation(self):
        c = chain(3)
        assert c.is_leq(0, 2) and not c.is_leq(2, 0)
        assert c.strict_pairs() == [(0, 1), (0, 2), (1, 2)]
        assert c.top() == 2

    def test_make_poset_closes_transitively(self):
        p = make_poset(3, [(0, 1), (1, 2)])
        assert p.is_leq(0, 2)

    def test_reflexivity_witness(self):
        with pytest.raises(PosetError, match="reflexivity fails at element 1"):
            FinitePoset([[1, 0], [0, 0]])

    def test_antisymmetry_witness(self):
        with pytest.raises(PosetError, match=r"antisymmetry fails at \(0, 1\)"):
            make_poset(2, [(0, 1), (1, 0)])

    def test_transitivity_witness(self):
        with pytest.raises(PosetError,
                           match=r"transitivity fails at \(0, 1, 2\)"):
            FinitePoset([[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_nonsquare_rejected(self):
        with pytest.raises(PosetError, match="not square"):
            FinitePoset([[1, 0], [0]])

    def test_out_of_range_relation(self):
        with pytest.raises(PosetError, match="out of range"):
            make_poset(2, [(0, 5)])

    def test_bowtie_shape(self):
        b = bowtie()
        assert b.size == 5
        assert b.down_set(3) == (0, 1, 2, 3)
        assert b.down_set(4) == (0, 1, 2, 4)
        assert b.top() is None

    def test_down_poset_of_chain_is_chain(self):
        sub, elems = chain(4).down_poset(2)
        assert elems == (0, 1, 2)
        assert sub == chain(3)

    def test_nested_down_posets_are_consistent(self):
        b = bowtie()
        sub, elems = b.down_poset(3)
        inner = sub.induced([elems.index(e) for e in b.down_set(1)])
        assert inner == b.down_poset(1)[0]

    def test_covers_are_the_hasse_diagram(self):
        assert chain(4).covers == ((0, 1), (1, 2), (2, 3))
        assert bowtie().covers == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                                   (2, 4))
        assert diamond().covers == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert make_poset(3, []).covers == ()
        site = chain(3)
        assert site.covers is site.covers


class TestPresheafConstruction:

    def test_missing_restriction(self):
        s = sierpinski()
        with pytest.raises(IllDefined, match=r"missing restriction"):
            AbPresheaf(s, [zmod(2), zmod(2)], {})

    def test_wrong_endpoints(self):
        s = sierpinski()
        with pytest.raises(IllDefined, match="wrong endpoints"):
            AbPresheaf(s, [zmod(2), zmod(4)],
                       {(0, 1): identity_hom(zmod(2))})

    def test_functoriality_witness(self):
        c = chain(3)
        two = fpab.FpAbHom(free_abelian(1), free_abelian(1),
                           IntMatrix.from_rows([[2]]))
        one = identity_hom(free_abelian(1))
        with pytest.raises(IllDefined, match=r"\(0, 1, 2\)"):
            AbPresheaf(c, [free_abelian(1)] * 3,
                       {(0, 1): two, (1, 2): two, (0, 2): one})

    def test_identity_pair_must_be_identity(self):
        s = sierpinski()
        dbl = fpab.FpAbHom(free_abelian(1), free_abelian(1),
                           IntMatrix.from_rows([[2]]))
        with pytest.raises(IllDefined, match=r"\(1, 1\)"):
            AbPresheaf(s, [free_abelian(1)] * 2,
                       {(0, 1): identity_hom(free_abelian(1)), (1, 1): dbl})

    def test_unrelated_pair_rejected(self):
        s = sierpinski()
        with pytest.raises(IllDefined, match="unrelated"):
            AbPresheaf(s, [free_abelian(1)] * 2,
                       {(0, 1): identity_hom(free_abelian(1)),
                        (1, 0): identity_hom(free_abelian(1))})

    def test_restrict_keeps_stalks(self):
        rng = random.Random(5)
        f = random_tree_presheaf(rng, CHAIN4)
        r = f.restrict((0, 1))
        assert r.site == chain(2)
        assert r.stalks == f.stalks[:2]
        assert r.res(0, 1) == f.res(0, 1)

    def test_hom_naturality_witness(self):
        s = sierpinski()
        f = constant_presheaf(s, free_abelian(1))
        g = constant_presheaf(s, zmod(2))
        mod2 = fpab.FpAbHom(free_abelian(1), zmod(2),
                            IntMatrix.from_rows([[1]]))
        # a zero bottom component against a mod-2 top one cannot commute
        with pytest.raises(IllDefined,
                           match=r"naturality fails at pair \(0, 1\)"):
            PresheafHom(f, g, [fpab.zero_hom(free_abelian(1), zmod(2)), mod2])
        PresheafHom(f, g, [mod2, mod2])

    def test_site_mismatch(self):
        f = constant_presheaf(chain(2), zmod(2))
        g = constant_presheaf(chain(3), zmod(2))
        with pytest.raises(SiteMismatch):
            PresheafHom(f, g, [])
        with pytest.raises(SiteMismatch):
            presheaf_hom_group(f, g)
        with pytest.raises(SiteMismatch):
            sheaf_ext(f, g, 1)


class TestFreePresheaves:

    def test_representable_on_sierpinski_bottom(self):
        a = free_presheaf(sierpinski(), 0)
        assert a.stalk(0).canonical_form == (1, ())
        assert a.stalk(1).is_trivial()

    def test_representable_on_sierpinski_top(self):
        a = free_presheaf(sierpinski(), 1)
        assert a.stalk(0).canonical_form == (1, ())
        assert a.stalk(1).canonical_form == (1, ())
        assert a.res(0, 1) == identity_hom(free_abelian(1))

    def test_sum_support_order(self):
        f = FreePresheaf(bowtie(), (3, 0, 4))
        assert f.support(0) == [0, 1, 2]
        assert f.support(1) == [0, 2]
        assert f.support(3) == [0]
        assert f.labels == (3, 0, 4)
        # restriction from m1 to z drops nothing here, includes coordinates
        m = f.res(0, 1)
        assert m.matrix.col(0) == (1, 0, 0)
        assert m.matrix.col(1) == (0, 0, 1)

    def test_zero_presheaf(self):
        z = zero_presheaf(bowtie())
        assert z.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_free_presheaves_pass_the_validating_constructor(self, rng):
        # FreePresheaf builds its stalks and restrictions unchecked
        size = rng.randint(1, 6)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        site = rng.choice([bowtie(), make_poset(size, [
            (p, i) for i, p in enumerate(parents) if p is not None])])
        f = FreePresheaf(site, [rng.randrange(site.size)
                                for _ in range(rng.randint(0, 4))])
        AbPresheaf(site, f.stalks, f.maps, check=True)
        for d in site.elements():
            assert f.stalk(d).canonical_form == (len(f.support(d)), ())


class TestHomGroups:

    def test_evaluation_law_random(self):
        # Hom(ZY(c), F) = F(c), with the hom group presented as a kernel
        # of naturality constraints; agreement is a Yoneda check
        rng = random.Random(11)
        for parents in (CHAIN4, TREE5):
            for _ in range(5):
                f = random_tree_presheaf(rng, parents)
                for c in f.site.elements():
                    phg = presheaf_hom_group(free_presheaf(f.site, c), f)
                    assert (phg.group.canonical_form
                            == f.stalk(c).canonical_form)

    def test_evaluation_matches_direct_sum_presentation(self):
        # the context presents Hom(sum ZY(c_i), A) as a direct sum of
        # stalks; the naturality-kernel presentation must agree
        rng = random.Random(23)
        site = make_poset(5, [(p, i) for i, p in enumerate(TREE5)
                              if p is not None])
        ctx = presheaf_context(site)
        for _ in range(3):
            a = random_tree_presheaf(rng, TREE5)
            labels = tuple(rng.randrange(5) for _ in range(3))
            free = FreePresheaf(site, labels)
            via_eval = ctx.hom_group(free, a).group
            via_kernel = presheaf_hom_group(free, a).group
            assert via_eval.canonical_form == via_kernel.canonical_form

    def test_hom_into_zero(self):
        rng = random.Random(3)
        f = random_tree_presheaf(rng, TREE5)
        phg = presheaf_hom_group(f, zero_presheaf(f.site))
        assert phg.group.is_trivial()

    def test_sierpinski_quotient_to_constant_is_zero(self):
        # Z/2 at the top has nowhere to go in a constant Z presheaf
        phg = presheaf_hom_group(sierpinski_quotient(),
                                 constant_presheaf(sierpinski(),
                                                   free_abelian(1)))
        assert phg.group.is_trivial()

    def test_hom_of_coords_of_roundtrip(self):
        rng = random.Random(7)
        f = random_tree_presheaf(rng, CHAIN4)
        g = random_tree_presheaf(rng, CHAIN4)
        phg = presheaf_hom_group(f, g)
        for fam in phg.basis:
            back = phg.hom_of(phg.coords_of(fam))
            assert back == fam

    def test_coords_reject_foreign_family(self):
        s = sierpinski()
        f = constant_presheaf(s, free_abelian(1))
        phg = presheaf_hom_group(f, f)
        # doubling only the top component breaks naturality; the family
        # lies outside the kernel lattice
        broken = PresheafHom(
            f, f,
            [identity_hom(free_abelian(1)),
             fpab.FpAbHom(free_abelian(1), free_abelian(1),
                          IntMatrix.from_rows([[2]]))],
            check=False)
        with pytest.raises(IllDefined, match="not natural"):
            phg.coords_of(broken)


def pairwise_hom_group(f, g):
    """The presheaf hom group as the constraints along covers replaced:
    per strict pair, a hom group Hom(F(c), G(d)) and the two induced maps
    into it.  Returns the group and its inclusion into the stalkwise
    hom groups' sum."""
    hgs = [fpab.hom_group(f.stalk(c), g.stalk(c)) for c in f.site.elements()]
    arrows = []
    for (d, c) in f.site.strict_pairs():
        hdc = fpab.hom_group(f.stalk(c), g.stalk(d))
        post = fpab.induced_hom_group_map(hgs[c], hdc, left=g.res(d, c).matrix)
        pre = fpab.induced_hom_group_map(hgs[d], hdc, right=f.res(d, c).matrix)
        arrows.append((hdc.group, c, post.matrix, d, pre.matrix))
    group, incl, _ = ps._equalizer([hg.group for hg in hgs], arrows)
    return group, incl


def scaled_presheaf(rng, site, group=None):
    """One stalk Z, Z/8 or Z/12 (or the group given) everywhere; F(d, c)
    multiplies by the product of random weights over ↓c outside ↓d, so
    F(e, d) F(d, c) = F(e, c) as ↓e ⊆ ↓d ⊆ ↓c."""
    group = group or rng.choice([free_abelian(1), zmod(8), zmod(12)])
    w = [rng.choice([1, -1, 2, 3]) for _ in site.elements()]
    res = {(d, c): fpab.FpAbHom(group, group, IntMatrix.from_rows([[
        math.prod(w[m] for m in site.down_set(c) if not site.leq[m][d])]]))
        for (d, c) in site.strict_pairs()}
    return AbPresheaf(site, [group] * site.size, res)


def functorial_on_every_triple(f):
    site = f.site
    return all(fpab.compose(f.res(e, d), f.res(d, c)) == f.res(e, c)
               for (d, c) in site.strict_pairs() for e in site.elements()
               if e != d and site.leq[e][d])


def natural_on_every_pair(f, g, comps):
    return all(fpab.compose(comps[d], f.res(d, c))
               == fpab.compose(g.res(d, c), comps[c])
               for (d, c) in f.site.strict_pairs())


def accepted(build):
    try:
        build()
    except IllDefined:
        return False
    return True


@st.composite
def small_sites(draw):
    """A random tree, the bowtie, a stacked crown (levels of two, each
    below both of the next) or a random poset, of at most 6 elements."""
    kind = draw(st.sampled_from(["tree", "bowtie", "crown", "poset"]))
    if kind == "bowtie":
        return bowtie()
    if kind == "crown":
        n = 2 * draw(st.integers(1, 3))
        return make_poset(n, [(d, c) for d in range(n) for c in range(n)
                              if d // 2 < c // 2])
    size = draw(st.integers(1, 6))
    if kind == "tree":
        parents = [None] + [draw(st.integers(0, i - 1))
                            for i in range(1, size)]
        return make_poset(size, [(p, i) for i, p in enumerate(parents)
                                 if p is not None])
    pairs = [(d, c) for c in range(size) for d in range(c)]
    return make_poset(size, draw(st.lists(st.sampled_from(pairs),
                                          unique=True)) if pairs else [])


class TestCoverChecks:
    """Functoriality on e ⋖ d < c and naturality on covers decide as the
    all-triples and all-pairs loops do, and the hom group constrained on
    covers is the one constrained pair by pair."""

    @settings(max_examples=100, deadline=None)
    @given(site=small_sites(), rng=st.randoms(use_true_random=False))
    def test_functoriality_on_covers_is_the_all_triples_check(self, site,
                                                               rng):
        f = rng.choice([random_cokernel_presheaf, scaled_presheaf])(rng, site)
        assert functorial_on_every_triple(f)
        maps = dict(f.maps)
        if maps:
            # half the time a pair that is no cover, which only the
            # triples with a longer upper step see
            far = [p for p in sorted(maps) if p not in site.covers]
            d, c = rng.choice(rng.choice([sorted(maps), far or sorted(maps)]))
            maps[(d, c)] = random_hom(rng, f.stalk(c), f.stalk(d))
        changed = AbPresheaf(site, f.stalks, maps, check=False)
        assert (accepted(lambda: AbPresheaf(site, f.stalks, maps))
                == functorial_on_every_triple(changed))

    @settings(max_examples=40, deadline=None)
    @given(site=small_sites(), rng=st.randoms(use_true_random=False))
    def test_naturality_on_covers_is_the_all_pairs_check(self, site, rng):
        kind = rng.choice([random_cokernel_presheaf, scaled_presheaf])
        f, g = kind(rng, site), kind(rng, site)
        phg = presheaf_hom_group(f, g)
        coords = IntMatrix.column([rng.randint(-2, 2)
                                   for _ in range(phg.group.gens)])
        comps = list(phg.hom_of(coords).components)
        assert natural_on_every_pair(f, g, comps)
        x = rng.randrange(site.size)
        comps[x] = random_hom(rng, f.stalk(x), g.stalk(x))
        assert (accepted(lambda: PresheafHom(f, g, comps))
                == natural_on_every_pair(f, g, comps))

    @settings(max_examples=40, deadline=None)
    @given(site=small_sites(), rng=st.randoms(use_true_random=False))
    def test_cover_constraints_span_the_pairwise_hom_group(self, site, rng):
        kind = rng.choice([random_cokernel_presheaf, scaled_presheaf])
        f, g = kind(rng, site), kind(rng, site)
        phg = presheaf_hom_group(f, g)
        group, incl = pairwise_hom_group(f, g)
        assert incl.tgt == phg.ambient
        for a, b in ((incl, phg.incl), (phg.incl, incl)):
            for j in range(a.src.gens):
                assert b.solver.solve(a.matrix.column_matrix(j)) is not None
        assert group.canonical_form == phg.group.canonical_form

    def test_one_hom_group_per_element(self):
        site = chain(5)
        f = constant_presheaf(site, free_abelian(2))
        g = constant_presheaf(site, zmod(4))
        with mock.patch.object(fpab, "hom_group",
                               wraps=fpab.hom_group) as spy, \
                mock.patch.object(fpab, "induced_hom_group_map") as induced:
            phg = presheaf_hom_group(f, g)
        assert spy.call_count == 5
        induced.assert_not_called()
        assert phg.group.canonical_form == (0, (4, 4))


class TestInternalHom:

    def test_sierpinski_shape(self):
        # at the bottom only the bottom stalks interact; at the top the
        # whole site does
        f = sierpinski_quotient()
        g = constant_presheaf(sierpinski(), zmod(4))
        ih = internal_hom(f, g)
        assert ih.stalk(0).canonical_form == fpab.hom_group(
            ZERO, zmod(4)).group.canonical_form
        assert (ih.stalk(1).canonical_form
                == presheaf_hom_group(f, g).group.canonical_form)

    def test_representable_source_gives_identity_restriction(self):
        # families out of ZY(0) over either down-set are just values at 0,
        # and the forgetful restriction is an isomorphism
        rng = random.Random(19)
        f = random_tree_presheaf(rng, [None, 0])
        ih = internal_hom(free_presheaf(f.site, 0), f)
        assert ih.stalk(0).canonical_form == f.stalk(0).canonical_form
        assert ih.stalk(1).canonical_form == f.stalk(0).canonical_form
        r = ih.res(0, 1)
        assert fpab.is_epi(r) and fpab.is_mono(r)

    def test_top_stalk_is_full_hom_group(self):
        rng = random.Random(31)
        for parents in (CHAIN4, TREE5):
            f = random_tree_presheaf(rng, parents)
            g = random_tree_presheaf(rng, parents)
            top = f.site.top()
            ih = internal_hom(f, g)
            if top is not None:
                assert (ih.stalk(top).canonical_form
                        == presheaf_hom_group(f, g).group.canonical_form)

    def test_chain_top_representable_restricts_to_stalks(self):
        # on a chain ZY(top) is the constant presheaf, so internal hom
        # into G evaluates to G stalkwise
        rng = random.Random(37)
        g = random_tree_presheaf(rng, CHAIN4)
        ih = internal_hom(free_presheaf(g.site, 3), g)
        for c in g.site.elements():
            assert ih.stalk(c).canonical_form == g.stalk(c).canonical_form

    def test_hom_into_zero_is_zero(self):
        rng = random.Random(41)
        f = random_tree_presheaf(rng, TREE5)
        assert internal_hom(f, zero_presheaf(f.site)).is_zero()
        assert internal_hom(zero_presheaf(f.site), f).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_restriction_forgets_outside_the_smaller_down_set(self, rng):
        # res(d, c) applied to the coordinates of a family below c gives
        # the coordinates of that family's components below d
        size = rng.randint(2, 5)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        f = random_tree_presheaf(rng, parents)
        g = random_tree_presheaf(rng, parents)
        site = f.site
        ih = internal_hom(f, g)
        downs = [site.down_set(c) for c in site.elements()]
        phgs = [presheaf_hom_group(f.restrict(elems), g.restrict(elems))
                for elems in downs]
        for c in site.elements():
            assert ih.stalk(c) == phgs[c].group
        for (d, c) in site.strict_pairs():
            res = ih.res(d, c).matrix
            unit = IntMatrix.identity(phgs[c].group.gens)
            for j, fam in enumerate(phgs[c].basis):
                part = phgs[d].hom_of(res * unit.column_matrix(j))
                assert list(part.components) == [
                    fam.components[downs[c].index(e)] for e in downs[d]]


class TestGlobalSections:

    def test_top_element_law(self):
        # a maximum element determines every section
        rng = random.Random(43)
        for parents in (CHAIN4, [None, 0, 1]):
            f = random_tree_presheaf(rng, parents)
            top = f.site.top()
            if top is None:
                continue
            assert (global_sections(f).canonical_form
                    == f.stalk(top).canonical_form)

    def test_constant_on_connected_site(self):
        assert (global_sections(constant_presheaf(bowtie(), zmod(6)))
                .canonical_form == zmod(6).canonical_form)

    def test_antichain_is_direct_sum(self):
        anti = make_poset(3, [])
        f = AbPresheaf(anti, [zmod(2), zmod(3), free_abelian(1)], {})
        assert global_sections(f).canonical_form == (1, (6,))

    def test_representable_with_upper_obstruction(self):
        # sections of ZY(0) over the chain die against the zero top stalk
        assert global_sections(free_presheaf(sierpinski(), 0)).is_trivial()

    def test_empty_site(self):
        empty = FinitePoset([])
        assert global_sections(zero_presheaf(empty)).is_trivial()

    def test_matches_hom_from_constant(self):
        # the limit is the group of maps out of the constant presheaf
        rng = random.Random(47)
        for parents in (TREE5, CHAIN4):
            f = random_tree_presheaf(rng, parents)
            via_hom = presheaf_hom_group(
                constant_presheaf(f.site, free_abelian(1)), f).group
            assert (global_sections(f).canonical_form
                    == via_hom.canonical_form)


class TestPresheafContext:

    def test_epi_cover_of_quotient(self):
        ctx = presheaf_context(sierpinski())
        free, aug = ctx.epi_cover(sierpinski_quotient())
        assert free.labels == (1,)
        assert ps.is_epi(aug)

    def test_kernel_of_cover(self):
        ctx = presheaf_context(sierpinski())
        _, aug = ctx.epi_cover(sierpinski_quotient())
        k, incl = ctx.kernel(aug)
        assert k.stalk(0).canonical_form == (1, ())
        assert k.stalk(1).canonical_form == (1, ())
        assert ps.is_mono(incl)
        # the kernel restriction is multiplication by 2 up to basis choice:
        # its cokernel has order 2
        coker, _ = fpab.cokernel(k.res(0, 1))
        assert coker.canonical_form == (0, (2,))

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_kernels_pass_the_validating_constructors(self, rng):
        # PresheafContext.kernel builds its presheaf and inclusion
        # unchecked; the validating constructors must accept both
        size = rng.randint(1, 4)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        a = random_tree_presheaf(rng, parents)
        ctx = presheaf_context(a.site)
        labels = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
        units = [IntMatrix.column([rng.randint(-2, 2)
                                   for _ in range(a.stalk(l).gens)])
                 for l in labels]
        phg = presheaf_hom_group(random_tree_presheaf(rng, parents), a)
        natural = phg.hom_of(IntMatrix.column(
            [rng.randint(-2, 2) for _ in range(phg.group.gens)]))
        for f in (ctx.extend_units(FreePresheaf(a.site, labels), a, units),
                  natural):
            k, incl = ctx.kernel(f)
            AbPresheaf(a.site, k.stalks, k.maps)
            PresheafHom(k, f.src, incl.components)
            assert ps.is_mono(incl)
            assert ctx.is_zero_hom(ctx.compose(f, incl))

    def test_lift_through_cover(self):
        rng = random.Random(53)
        f = random_tree_presheaf(rng, TREE5)
        ctx = presheaf_context(f.site)
        free, p = ctx.epi_cover(f)
        hg = ctx.hom_group(free, f)
        coords = IntMatrix.column([rng.randrange(-2, 3)
                                   for _ in range(hg.group.gens)])
        g = hg.hom_of(coords)
        h = ctx.lift_through(p, g)
        assert ctx.compose(p, h) == g

    def test_lift_requires_labels(self):
        s = sierpinski()
        ctx = presheaf_context(s)
        f = constant_presheaf(s, free_abelian(1))
        ident = ctx.identity(f)
        with pytest.raises(NotFree):
            ctx.lift_through(ident, ident)

    def test_lift_detects_missed_image(self):
        s = sierpinski()
        ctx = presheaf_context(s)
        z = constant_presheaf(s, free_abelian(1))
        dbl = PresheafHom(z, z, [fpab.FpAbHom(free_abelian(1),
                                              free_abelian(1),
                                              IntMatrix.from_rows([[2]]))] * 2)
        one = ctx.hom_group(FreePresheaf(s, (1,)), z).hom_of(
            IntMatrix.column([1]))
        with pytest.raises(NotEpi):
            ctx.lift_through(dbl, one)

    def test_induced_precompose_matches_evaluation(self):
        # oracle: evaluation coordinates of the composed basis homs
        rng = random.Random(59)
        site = make_poset(5, [(p, i) for i, p in enumerate(TREE5)
                              if p is not None])
        ctx = presheaf_context(site)
        a = random_tree_presheaf(rng, TREE5)
        res = resolution.free_resolution(ctx, a, 2)
        hg0 = ctx.hom_group(res.free(0), a)
        hg1 = ctx.hom_group(res.free(1), a)
        induced = ctx.induced_precompose(hg0, hg1, res.diff(1))

        def eval_coords(free, ph):
            vals = []
            for i, l in enumerate(free.labels):
                pos = free.support(l).index(i)
                vals.extend(ph.components[l].matrix.col(pos))
            return vals

        for j in range(hg0.group.gens):
            unit = IntMatrix.column([1 if r == j else 0
                                     for r in range(hg0.group.gens)])
            composite = ps._compose(hg0.hom_of(unit), res.diff(1))
            assert (induced.matrix.col(j)
                    == tuple(eval_coords(res.free(1), composite)))

    def test_hom_complex_squares_to_zero(self):
        rng = random.Random(61)
        site = make_poset(4, [(p, i) for i, p in enumerate(CHAIN4)
                              if p is not None])
        ctx = presheaf_context(site)
        b = random_tree_presheaf(rng, CHAIN4)
        a = random_tree_presheaf(rng, CHAIN4)
        res = resolution.free_resolution(ctx, b, 3)
        cx = resolution.hom_complex(res, a)
        for n in range(len(cx.maps) - 1):
            assert fpab.compose(cx.maps[n + 1], cx.maps[n]).is_zero()

    def test_resolution_validates_on_bowtie(self):
        ctx = presheaf_context(bowtie())
        b = constant_presheaf(bowtie(), zmod(2))
        res = resolution.free_resolution(ctx, b, 2)
        res.validate()


class TestSierpinskiResolution:

    def test_shape_matches_hand_computation(self):
        # cover the top stalk, then the kernel (Z, 2Z), then its kernel
        # (Z at the bottom only), after which the kernel is zero and the
        # resolution ends
        ctx = presheaf_context(sierpinski())
        res = resolution.free_resolution(ctx, sierpinski_quotient(), 3)
        assert res.free(0).labels == (1,)
        assert res.free(1).labels == (0, 1)
        assert res.free(2).labels == (0,)
        assert res.complete and res.max_deg == 2
        res.validate()

    def test_first_differential_entries(self):
        ctx = presheaf_context(sierpinski())
        res = resolution.free_resolution(ctx, sierpinski_quotient(), 1)
        d1 = res.diff(1)
        # the bottom summand is invisible at the top, where the relation
        # is multiplication by 2; at the bottom both summands hit Z
        top = d1.components[1].matrix
        assert top.rows == 1 and top.cols == 1
        assert abs(top.entry(0, 0)) == 2
        bottom = d1.components[0].matrix
        assert bottom.rows == 1 and bottom.cols == 2
        assert sorted(abs(bottom.entry(0, j)) for j in range(2)) == [1, 2]


class TestSheafExt:

    def test_degree_zero_is_internal_hom(self):
        rng = random.Random(67)
        for parents in (CHAIN4, TREE5):
            b = random_tree_presheaf(rng, parents)
            a = random_tree_presheaf(rng, parents)
            r = sheaf_ext(b, a, 0)
            ih = internal_hom(b, a)
            for c in b.site.elements():
                assert (r.stalk(c).canonical_form
                        == ih.stalk(c).canonical_form)
            assert (global_sections(r.presheaf).canonical_form
                    == global_sections(ih).canonical_form)

    def test_representable_source_vanishes_positively(self):
        # on principal-intersection sites restricted representables stay
        # free, so higher Ext dies stalkwise
        site = diamond()
        a = AbPresheaf(site, [zmod(4), zmod(2), ZERO, zmod(2)],
                       {(0, 1): fpab.zero_hom(zmod(2), zmod(4)),
                        (0, 2): fpab.zero_hom(ZERO, zmod(4)),
                        (0, 3): fpab.zero_hom(zmod(2), zmod(4)),
                        (1, 3): identity_hom(zmod(2)),
                        (2, 3): fpab.zero_hom(zmod(2), ZERO)})
        for c in site.elements():
            for n in (1, 2):
                r = sheaf_ext(free_presheaf(site, c), a, n)
                assert r.presheaf.is_zero()

    @settings(max_examples=30, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           n=st.sampled_from([0, 1, 2]),
           method=st.sampled_from(["general", "fast"]))
    def test_stalks_are_presented_on_invariant_factors(self, rng, n, method):
        size = rng.randint(1, 5)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        r = sheaf_ext(random_tree_presheaf(rng, parents),
                      random_tree_presheaf(rng, parents), n, method=method)
        for s in r.presheaf.stalks:
            assert s.gens == s.rank + len(s.invariant_factors)

    def test_sierpinski_quotient_headline(self):
        b = sierpinski_quotient()
        a = free_presheaf(sierpinski(), 0)
        r = sheaf_ext(b, a, 2)
        assert r.stalk(0).is_trivial()
        assert r.stalk(1).canonical_form == (0, (2,))
        assert global_sections(r.presheaf).canonical_form == (0, (2,))
        assert external_ext(b, a, 2).canonical_form == (0, (2,))

    def test_sierpinski_resolutions_are_recorded(self):
        b = sierpinski_quotient()
        a = free_presheaf(sierpinski(), 0)
        for method in ("general", "fast"):
            r = sheaf_ext(b, a, 2, method=method)
            assert set(r.resolutions) == {0, 1}
            for res in r.resolutions.values():
                res.validate()

    @pytest.mark.parametrize("method", ["general", "fast"])
    def test_recorded_resolutions_compute_the_stalks(self, method):
        # each recorded resolution is one by sums of representables over
        # its down-set, so its hom complex gives that stalk back
        rng = random.Random(71)
        b = random_tree_presheaf(rng, TREE5)
        a = random_tree_presheaf(rng, TREE5)
        for n in (1, 2):
            r = sheaf_ext(b, a, n, method=method)
            for c in b.site.elements():
                res = r.resolutions[c]
                assert all(isinstance(f, FreePresheaf) for f in res.frees)
                res.validate()
                ac = a.restrict(b.site.down_set(c))
                # past a complete resolution's length Ext is zero
                h = (resolution.cohomology(resolution.hom_complex(res, ac), n)
                     if n <= res.max_deg else ZERO)
                assert h.canonical_form == r.stalk(c).canonical_form

    def test_stalks_are_down_set_ext(self):
        # definition check: each stalk recomputed from scratch over the
        # restricted site
        rng = random.Random(73)
        b = random_tree_presheaf(rng, TREE5)
        a = random_tree_presheaf(rng, TREE5)
        r = sheaf_ext(b, a, 1)
        for c in b.site.elements():
            sub, elems = b.site.down_poset(c)
            direct = resolution.ext_n(presheaf_context(sub),
                                      b.restrict(elems), a.restrict(elems), 1)
            assert r.stalk(c).canonical_form == direct.canonical_form

    def test_general_path_covers_bowtie(self):
        b = constant_presheaf(bowtie(), zmod(2))
        a = free_presheaf(bowtie(), 0)
        r = sheaf_ext(b, a, 1)
        for c in bowtie().elements():
            sub, elems = bowtie().down_poset(c)
            direct = resolution.ext_n(presheaf_context(sub),
                                      b.restrict(elems), a.restrict(elems), 1)
            assert r.stalk(c).canonical_form == direct.canonical_form

    def test_top_global_sections_match_external(self):
        # with a maximum element the limit is the stalk there, which is
        # Ext over the whole site
        rng = random.Random(79)
        b = random_tree_presheaf(rng, CHAIN4)
        a = random_tree_presheaf(rng, CHAIN4)
        for n in (0, 1, 2):
            r = sheaf_ext(b, a, n)
            assert (global_sections(r.presheaf).canonical_form
                    == external_ext(b, a, n).canonical_form)

    def test_degree_validation(self):
        b = sierpinski_quotient()
        with pytest.raises(ValueError, match="nonnegative"):
            sheaf_ext(b, b, -1)
        with pytest.raises(ValueError, match="unknown method"):
            sheaf_ext(b, b, 1, method="bogus")


class TestFastPath:

    def test_gate(self):
        assert principal_intersection_check(chain(4))
        assert principal_intersection_check(
            make_poset(6, [(p, i) for i, p in enumerate(TREE6)
                           if p is not None]))
        assert principal_intersection_check(diamond())
        assert principal_intersection_check(make_poset(3, []))
        assert not principal_intersection_check(bowtie())

    def test_fast_refused_off_gate(self):
        b = constant_presheaf(bowtie(), zmod(2))
        with pytest.raises(ValueError, match="principal"):
            sheaf_ext(b, b, 1, method="fast")

    def test_auto_dispatch(self):
        b = constant_presheaf(bowtie(), zmod(2))
        a = free_presheaf(bowtie(), 0)
        r = sheaf_ext(b, a, 1, method="auto")
        g = sheaf_ext(b, a, 1, method="general")
        for c in bowtie().elements():
            assert r.stalk(c).canonical_form == g.stalk(c).canonical_form

    def test_agreement_with_general(self):
        rng = random.Random(83)
        for parents in (CHAIN4, TREE5, TREE6):
            for _ in range(2):
                b = random_tree_presheaf(rng, parents)
                a = random_tree_presheaf(rng, parents)
                for n in (1, 2):
                    assert_paths_agree(b, a, n)

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           n=st.sampled_from([0, 1, 2]))
    def test_agreement_property(self, rng, n):
        size = rng.randint(1, 5)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        assert_paths_agree(random_tree_presheaf(rng, parents),
                           random_tree_presheaf(rng, parents), n)

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           parents=st.sampled_from([CHAIN4, TREE5, TREE6]))
    def test_tree_sites_have_global_dimension_two(self, rng, parents):
        # the Hasse diagram of a rooted tree is a tree, so its incidence
        # algebra is a path algebra: hereditary over a field, of global
        # dimension at most 2 over Z, and Ext^3 vanishes
        b = random_tree_presheaf(rng, parents)
        a = random_tree_presheaf(rng, parents)
        for method in ("general", "fast"):
            assert sheaf_ext(b, a, 3, method=method).presheaf.is_zero()

    def test_agreement_on_diamond(self):
        site = diamond()
        b = constant_presheaf(site, zmod(4))
        a = free_presheaf(site, 1)
        for n in (0, 1, 2):
            assert_paths_agree(b, a, n)


def direct_class_maps(a, degrees, resolutions, transport):
    """Every restriction as its own class map, one transport per
    comparable pair: the all-pairs assembly that covers replaced."""
    site = a.site
    data = {c: resolution.cohomology_table(res, a.restrict(
        site.down_set(c)), degrees) for c, res in resolutions.items()}
    maps = {n: {} for n in degrees}
    for (d, c) in site.strict_pairs():
        live = [n for n in degrees
                if data[c][n].group.gens and data[d][n].group.gens]
        moved = dict(zip(live, transport(d, c, live))) if live else {}
        for n in degrees:
            src, tgt = data[c][n], data[d][n]
            maps[n][(d, c)] = (tgt.classes_of(moved[n] * src.lattice)
                               if n in moved else IntMatrix.zero(
                                   tgt.group.gens, src.group.gens))
    return maps


class TestHasseCovers:
    """Only covers are lifted; every longer restriction is the reduced
    composite along a chain of covers, byte for byte the direct class
    map of its pair."""

    @staticmethod
    def assert_composites_are_direct(b, a, degrees, method):
        calls, assemble = [], ps._assemble

        def spy(*args):
            calls.append(args)
            return assemble(*args)
        with mock.patch.object(ps, "_assemble", spy):
            table = sheaf_ext_table(b, a, degrees, method)
        (args,) = calls
        direct = direct_class_maps(*args)
        for n in degrees:
            assert ({pair: h.matrix
                     for pair, h in table[n].presheaf.maps.items()}
                    == direct[n])

    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           k=st.sampled_from([1, 2]),
           method=st.sampled_from(["general", "fast"]))
    def test_tree_composites_are_direct(self, rng, k, method):
        size = rng.randint(3, 6)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        self.assert_composites_are_direct(
            random_tree_presheaf(rng, parents),
            random_tree_presheaf(rng, parents), range(k + 1), method)

    @settings(max_examples=15, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           k=st.sampled_from([1, 2]))
    def test_bowtie_composites_are_direct(self, rng, k):
        self.assert_composites_are_direct(
            random_cokernel_presheaf(rng, bowtie()),
            random_cokernel_presheaf(rng, bowtie()), range(k + 1),
            "general")


def assert_same_result(got, want):
    """Equal stalk presentations and restriction matrices, as printed."""
    assert got.presheaf.stalks == want.presheaf.stalks
    assert ({pair: h.matrix for pair, h in got.presheaf.maps.items()}
            == {pair: h.matrix for pair, h in want.presheaf.maps.items()})


class TestDegreeTables:
    """A table reads every degree off one set of resolutions, and each of
    its degrees is exactly what a single-degree request gives."""

    @settings(max_examples=30, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           k=st.sampled_from([1, 2, 3]),
           method=st.sampled_from(["general", "fast"]))
    def test_tree_table_is_the_single_degrees(self, rng, k, method):
        size = rng.randint(1, 6)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        b = random_tree_presheaf(rng, parents)
        a = random_tree_presheaf(rng, parents)
        table = sheaf_ext_table(b, a, range(k + 1), method)
        assert list(table) == list(range(k + 1))
        for n in range(k + 1):
            assert_same_result(table[n], sheaf_ext(b, a, n, method))

    @settings(max_examples=15, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           k=st.sampled_from([1, 2]))
    def test_bowtie_table_is_the_single_degrees(self, rng, k):
        b = random_cokernel_presheaf(rng, bowtie())
        a = random_cokernel_presheaf(rng, bowtie())
        table = sheaf_ext_table(b, a, range(k + 1), "general")
        for n in range(k + 1):
            assert_same_result(table[n], sheaf_ext(b, a, n, "general"))

    @settings(max_examples=30, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           k=st.sampled_from([1, 2, 3]))
    def test_external_table_is_the_single_degrees(self, rng, k):
        size = rng.randint(1, 6)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        b = random_tree_presheaf(rng, parents)
        a = random_tree_presheaf(rng, parents)
        table = external_ext_table(b, a, range(k + 1))
        for n in range(k + 1):
            assert table[n].group == external_ext(b, a, n)

    def test_results_share_their_resolutions(self):
        b = sierpinski_quotient()
        a = free_presheaf(sierpinski(), 0)
        table = sheaf_ext_table(b, a, [0, 2], "general")
        assert table[0].resolutions is table[2].resolutions
        # asked to depth 3, each ends at its first zero kernel
        assert [table[0].resolutions[c].max_deg for c in (0, 1)] == [0, 2]
        assert all(res.complete for res in table[0].resolutions.values())

    def test_table_validation(self):
        b = sierpinski_quotient()
        with pytest.raises(ValueError, match="nonnegative"):
            sheaf_ext_table(b, b, [2, -1])
        with pytest.raises(ValueError, match="nonnegative"):
            external_ext_table(b, b, [-1, 0])
        with pytest.raises(SiteMismatch):
            external_ext_table(b, constant_presheaf(chain(3), zmod(2)), [0])


class TestTopOfStalkCover:
    """Resolutions cover only the top of each stalk; validate() checks
    exactness and the epi augmentation without trusting the cover."""

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_resolutions_validate_on_trees(self, rng):
        size = rng.randint(1, 6)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        b = random_tree_presheaf(rng, parents)
        resolution.free_resolution(presheaf_context(b.site), b, 3).validate()

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_resolutions_validate_on_bowtie(self, rng):
        b = random_cokernel_presheaf(rng, bowtie())
        resolution.free_resolution(presheaf_context(b.site), b, 3).validate()

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_tree_resolutions_stop_at_degree_two(self, rng):
        # the incidence algebra of a tree is hereditary over a field, so
        # over Z the second syzygy is projective; covering it from the top
        # of each stalk leaves no kernel
        size = rng.randint(1, 8)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
        b = random_tree_presheaf(rng, parents)
        res = resolution.free_resolution(presheaf_context(b.site), b, 3)
        assert res.complete and res.max_deg <= 2

    @settings(max_examples=30, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           n=st.sampled_from([0, 1, 2, 3]))
    def test_external_ext_is_the_top_stalk_on_chains(self, rng, n):
        size = rng.randint(1, 5)
        parents = [None] + list(range(size - 1))
        b = random_tree_presheaf(rng, parents)
        a = random_tree_presheaf(rng, parents)
        ext = external_ext(b, a, n).canonical_form
        for method in ("general", "fast"):
            top = sheaf_ext(b, a, n, method=method).stalk(size - 1)
            assert top.canonical_form == ext

    def test_chain12_ranks_stay_small(self):
        # one representable per stalk generator made these
        # [10, 64, 225, 495, 737] through degree 4
        rng = random.Random(1)
        b = random_tree_presheaf(rng, [None] + list(range(11)))
        res = resolution.free_resolution(presheaf_context(b.site), b, 4)
        ranks = [len(f.labels) for f in res.frees]
        assert sum(ranks) <= 40
        assert res.complete and res.max_deg <= 2

    def test_cover_skips_generators_reached_from_above(self):
        # Z on the chain 0 < 1 < 2 with identity restrictions: the bottom
        # stalks are reached from the top, so one representable suffices
        site = chain(3)
        b = constant_presheaf(site, free_abelian(1))
        free, aug = presheaf_context(site).epi_cover(b)
        assert free.labels == (2,)
        assert ps.is_epi(aug)


class TestTrustedConstruction:
    """Engine-built presheaves skip validation; check=True keeps it all."""

    def test_missing_restriction_names_the_pair(self):
        one = identity_hom(zmod(2))
        with pytest.raises(IllDefined,
                           match=r"missing restriction for \(0, 2\)"):
            AbPresheaf(chain(3), [zmod(2)] * 3, {(0, 1): one, (1, 2): one},
                       check=True)

    def test_wrong_endpoints_name_the_pair(self):
        one = identity_hom(zmod(2))
        mod2 = fpab.FpAbHom(zmod(4), zmod(2), IntMatrix.from_rows([[1]]))
        with pytest.raises(IllDefined, match=r"restriction for \(1, 2\) "
                                             "has wrong endpoints"):
            AbPresheaf(chain(3), [zmod(2), zmod(2), zmod(4)],
                       {(0, 1): one, (0, 2): mod2, (1, 2): one}, check=True)

    def test_hom_component_with_wrong_endpoints_is_named(self):
        f = constant_presheaf(chain(3), zmod(2))
        comps = [identity_hom(zmod(2)), identity_hom(zmod(4)),
                 identity_hom(zmod(2))]
        with pytest.raises(IllDefined,
                           match=r"component at 1 has wrong endpoints"):
            PresheafHom(f, f, comps, check=True)

    def test_induced_posets_are_orders(self):
        site = make_poset(6, [(p, i) for i, p in enumerate(TREE6)
                              if p is not None])
        for c in site.elements():
            sub, elems = site.down_poset(c)
            assert sub == FinitePoset(sub.leq, check=True)
            assert sub.size == len(elems)


def witness_through_hom_groups(site, c, sigma):
    """internal_projectivity_witness through explicit natural families.

    At each e, both hom groups out of ZY(c) below e are built from the
    stalkwise hom groups, and postcomposition with sigma is read off in
    coordinates.  Returns the induced map at every element.
    """
    yc = free_presheaf(site, c)
    maps = []
    for e in site.elements():
        elems = site.down_set(e)
        y = yc.restrict(elems)
        src = presheaf_hom_group(y, sigma.src.restrict(elems))
        tgt = presheaf_hom_group(y, sigma.tgt.restrict(elems))
        sg = PresheafHom(src.tgt_presheaf, tgt.tgt_presheaf,
                         [sigma.components[x] for x in elems], check=False)
        cols = [tgt.coords_of(ps._compose(sg, fam)).coords.col(0)
                for fam in src.basis]
        maps.append(fpab.FpAbHom(
            src.group, tgt.group,
            IntMatrix.from_cols(cols, rows=tgt.group.gens), check=False))
    return maps


# The reference family for witness_search, built by brute force: every
# kind assignment validated by AbPresheaf, every kind pair by PresheafHom.
KINDS = (ZERO, zmod(2), free_abelian(1))


def canonical_map(a, b):
    """The unit map between kinds a and b where it is a hom, else zero."""
    src, tgt = KINDS[a], KINDS[b]
    if a and b and (a, b) != (1, 2):
        return fpab.FpAbHom(src, tgt, IntMatrix.from_rows([[1]]))
    return fpab.zero_hom(src, tgt)


def canonical_presheaves(site):
    out = []
    for kinds in itertools.product(range(3), repeat=site.size):
        res = {(d, c): canonical_map(kinds[c], kinds[d])
               for (d, c) in site.strict_pairs()}
        try:
            out.append((kinds, AbPresheaf(site, [KINDS[k] for k in kinds],
                                          res, check=True)))
        except IllDefined:
            continue
    return out


def canonical_epis_from(kinds_f, f, cands):
    """The natural stalkwise epis out of f, in the order of cands."""
    for kinds_g, g in cands:
        comps = [canonical_map(a, b) for a, b in zip(kinds_f, kinds_g)]
        if not all(fpab.is_epi(h) for h in comps):
            continue
        try:
            yield PresheafHom(f, g, comps, check=True)
        except IllDefined:
            continue


def reference_epis(site):
    cands = canonical_presheaves(site)
    return [sigma for kinds_f, f in cands
            for sigma in canonical_epis_from(kinds_f, f, cands)]


def reference_witness(site, c, epis):
    """witness_search as a plain scan of every epi of the family in order."""
    for sigma in epis:
        stalk = internal_projectivity_witness(site, c, sigma)
        if stalk is not None:
            return sigma, stalk
    return None


def assert_search_matches_reference(site, elements=None):
    epis = reference_epis(site)
    for c in site.elements() if elements is None else elements:
        assert witness_search(site, c) == reference_witness(site, c, epis)


def labelled_posets(n):
    """Every poset on elements 0..n-1, each once."""
    pairs = [(d, c) for d in range(n) for c in range(n) if d != c]
    seen = {}
    for mask in range(1 << len(pairs)):
        rels = [p for i, p in enumerate(pairs) if mask >> i & 1]
        try:
            site = make_poset(n, rels)
        except PosetError:
            continue
        seen.setdefault(site.leq, site)
    return list(seen.values())


@st.composite
def canonical_epis(draw):
    """A poset of at most 4 elements, an element c and a canonical epi."""
    size = draw(st.integers(1, 4))
    pairs = [(d, c) for c in range(size) for d in range(c)]
    relations = (st.lists(st.sampled_from(pairs), unique=True) if pairs
                 else st.just([]))
    site = make_poset(size, draw(relations))
    cands = canonical_presheaves(site)
    kinds_f, f = draw(st.sampled_from(cands))
    epis = list(canonical_epis_from(kinds_f, f, cands))
    return site, draw(st.integers(0, size - 1)), draw(st.sampled_from(epis))


def _forms(h):
    return (h.src.canonical_form, h.tgt.canonical_form,
            fpab.kernel(h)[0].canonical_form,
            fpab.cokernel(h)[0].canonical_form)


class TestProjectivityWitness:

    @settings(max_examples=60, deadline=None)
    @given(case=canonical_epis())
    def test_sections_match_hom_groups(self, case):
        # Yoneda: Hom(ZY(c), F) below e is Γ(↓c∩↓e, F), and the witness
        # reads sigma on those sections as postcomposition with sigma
        site, c, sigma = case
        reference = witness_through_hom_groups(site, c, sigma)
        for e, ref in enumerate(reference):
            meet = [x for x in site.down_set(c) if site.is_leq(x, e)]
            assert (sections(sigma.src, meet)[0].canonical_form
                    == ref.src.canonical_form)
            assert (sections(sigma.tgt, meet)[0].canonical_form
                    == ref.tgt.canonical_form)
            at_e = ps._internal_hom_at(site, c, e, sigma)
            assert _forms(at_e) == _forms(ref)
            if ps._meet(site, c, e) is not ps._NOT_PRINCIPAL:
                # over a maximum m of the meet the sections are the stalk
                # at m, so witness_search never asks here
                assert fpab.is_epi(ref)
        first = next((e for e, ref in enumerate(reference)
                      if not fpab.is_epi(ref)), None)
        assert internal_projectivity_witness(site, c, sigma) == first

    def test_search_matches_reference_on_every_small_poset(self):
        for n in (1, 2, 3):
            for site in labelled_posets(n):
                assert_search_matches_reference(site)

    @pytest.mark.parametrize("site", [
        chain(4), diamond(), make_poset(4, [(0, 2), (1, 2), (1, 3)]),
        make_poset(4, []), bowtie()],
        ids=["chain4", "diamond", "N", "antichain4", "bowtie"])
    def test_search_matches_reference(self, site):
        assert_search_matches_reference(site)

    def test_search_matches_reference_where_the_meet_splits(self):
        # ↓3∩↓4 = {0 < 1} ⊔ {2} has no maximum, so the search asks there;
        # every piece has one, so every canonical epi is preserved
        site = make_poset(5, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4)])
        assert_search_matches_reference(site, [3])
        assert witness_search(site, 3) is None

    @pytest.mark.parametrize("c", [-1, 5])
    def test_element_outside_the_poset_is_rejected(self, c):
        s = sierpinski()
        f = constant_presheaf(s, free_abelian(1))
        ident = PresheafHom(f, f, [identity_hom(free_abelian(1))] * 2)
        with pytest.raises(IllDefined, match=f"element {c} is not in"):
            witness_search(s, c)
        with pytest.raises(IllDefined, match=f"element {c} is not in"):
            internal_projectivity_witness(s, c, ident)

    def test_bowtie_search_finds_witness(self):
        found = witness_search(bowtie(), 3)
        assert found is not None
        sigma, stalk = found
        assert ps.is_epi(sigma)
        assert stalk in (3, 4)

    def test_witness_verified_by_substitution(self):
        # rebuild the induced stalk map independently and watch it miss
        sigma, stalk = witness_search(bowtie(), 3)
        induced = witness_through_hom_groups(bowtie(), 3, sigma)[stalk]
        assert not fpab.is_epi(induced)
        assert not induced.tgt.is_trivial()

    def test_witness_is_stable(self):
        first = witness_search(bowtie(), 3)
        second = witness_search(bowtie(), 3)
        assert first[1] == second[1]
        assert first[0] == second[0]

    def test_sierpinski_bottom_has_no_witness(self):
        # internal hom out of ZY(0) is evaluation at the bottom stalk,
        # which preserves every stalkwise surjection
        assert witness_search(sierpinski(), 0) is None

    def test_direct_witness_check(self):
        # hand-built instance: fibered product against the diagonal
        site = bowtie()
        mod2 = fpab.FpAbHom(free_abelian(1), zmod(2),
                            IntMatrix.from_rows([[1]]))
        f = AbPresheaf(site,
                       [zmod(2), free_abelian(1), free_abelian(1),
                        ZERO, ZERO],
                       {(0, 1): mod2, (0, 2): mod2,
                        (0, 3): fpab.zero_hom(ZERO, zmod(2)),
                        (0, 4): fpab.zero_hom(ZERO, zmod(2)),
                        (1, 3): fpab.zero_hom(ZERO, free_abelian(1)),
                        (1, 4): fpab.zero_hom(ZERO, free_abelian(1)),
                        (2, 3): fpab.zero_hom(ZERO, free_abelian(1)),
                        (2, 4): fpab.zero_hom(ZERO, free_abelian(1))})
        g = AbPresheaf(site,
                       [ZERO, zmod(2), zmod(2), ZERO, ZERO],
                       {(0, 1): fpab.zero_hom(zmod(2), ZERO),
                        (0, 2): fpab.zero_hom(zmod(2), ZERO),
                        (0, 3): fpab.zero_hom(ZERO, ZERO),
                        (0, 4): fpab.zero_hom(ZERO, ZERO),
                        (1, 3): fpab.zero_hom(ZERO, zmod(2)),
                        (1, 4): fpab.zero_hom(ZERO, zmod(2)),
                        (2, 3): fpab.zero_hom(ZERO, zmod(2)),
                        (2, 4): fpab.zero_hom(ZERO, zmod(2))})
        sigma = PresheafHom(f, g,
                            [fpab.zero_hom(zmod(2), ZERO), mod2, mod2,
                             fpab.zero_hom(ZERO, ZERO),
                             fpab.zero_hom(ZERO, ZERO)])
        assert ps.is_epi(sigma)
        assert internal_projectivity_witness(site, 3, sigma) in (3, 4)

    def test_witness_requires_epi(self):
        s = sierpinski()
        f = constant_presheaf(s, free_abelian(1))
        dbl = PresheafHom(f, f, [fpab.FpAbHom(free_abelian(1),
                                              free_abelian(1),
                                              IntMatrix.from_rows([[2]]))] * 2)
        with pytest.raises(ValueError, match="epimorphism"):
            internal_projectivity_witness(s, 0, dbl)


def z_free_presheaf(rng, site):
    """A random objectwise Z-free presheaf: constant Z^2, Z scaled along
    the order, Z on an up-set or a down-set and 0 off it, or the kernel of
    a random map between sums of representables."""
    kind = rng.choice(["constant", "scaled", "indicator", "kernel"])
    if kind == "constant":
        return constant_presheaf(site, free_abelian(2))
    if kind == "scaled":
        return scaled_presheaf(rng, site, free_abelian(1))
    if kind == "indicator":
        x, up = rng.randrange(site.size), rng.random() < 0.5
        inside = [site.leq[x][y] if up else site.leq[y][x]
                  for y in site.elements()]
        stalks = [free_abelian(int(i)) for i in inside]
        return AbPresheaf(site, stalks, {(d, c): fpab.FpAbHom(
            stalks[c], stalks[d], IntMatrix.identity(1) if inside[c]
            and inside[d] else IntMatrix.zero(stalks[d].gens, stalks[c].gens))
            for (d, c) in site.strict_pairs()})
    ctx = presheaf_context(site)
    src, tgt = (FreePresheaf(site, [rng.randrange(site.size)
                                    for _ in range(rng.randint(1, 3))])
                for _ in range(2))
    units = [IntMatrix.column([rng.randint(-2, 2)
                               for _ in range(tgt.stalk(l).gens)])
             for l in src.labels]
    return ctx.kernel(ctx.extend_units(src, tgt, units))[0]


def stacked_crown(levels):
    """Levels of two elements, each below both elements of the next."""
    n = 2 * levels
    return make_poset(n, [(d, c) for d in range(n) for c in range(n)
                          if d // 2 < c // 2])


class TestNerveOracle:
    """External Ext against the cohomology of the nerve, which needs no
    resolution by representables, on posets with or without a maximum."""

    @settings(max_examples=100, deadline=None)
    @given(site=small_sites(), rng=st.randoms(use_true_random=False))
    def test_external_ext_is_the_nerve_cohomology(self, site, rng):
        b = z_free_presheaf(rng, site)
        a = rng.choice([random_cokernel_presheaf, scaled_presheaf])(rng, site)
        engine = external_ext_table(b, a, [0, 1, 2])
        nerve = nerve_ext_table(site, b, a, [0, 1, 2])
        for n in range(3):
            assert engine[n].group.canonical_form == nerve[n].canonical_form

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_constant_z_on_a_stacked_crown_is_a_sphere(self, levels):
        # the order complex of k levels is the k-fold suspension of two
        # points, S^(k-1) (McCord, Duke Math. J. 33, 1966)
        site = stacked_crown(levels)
        z = constant_presheaf(site, free_abelian(1))
        sphere = {n: (int(n in (0, levels - 1)), ()) for n in range(levels + 1)}
        engine = external_ext_table(z, z, list(sphere))
        nerve = nerve_ext_table(site, z, z, list(sphere))
        assert {n: d.group.canonical_form for n, d in engine.items()} == sphere
        assert {n: g.canonical_form for n, g in nerve.items()} == sphere

    def test_nerve_refuses_torsion_in_b(self):
        site = chain(2)
        with pytest.raises(ValueError, match="Z-free"):
            nerve_ext(site, constant_presheaf(site, zmod(2)),
                      constant_presheaf(site, zmod(2)), 1)
