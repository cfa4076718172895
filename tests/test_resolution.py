"""Tests for the resolution engine over the plain abelian-group context.

Cross-checks: Ext¹ from resolutions must match the extension-calculus
group, Hom from resolutions must match the direct hom-group computation,
and everything vanishes in degrees 2 and up over the integers.  The
shared hom group out of a free is also checked by one property over all
three contexts: induced precomposition agrees with composing the maps.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from extcalc import fpab
from extcalc.exactint import IntMatrix, hstack
from extcalc.fpab import (
    FpAbHom,
    NotFree,
    free_abelian,
    from_invariants,
    hom_group,
    identity_hom,
    kernel,
    make_group,
    make_hom,
    zmod,
)
from extcalc.groupring import (
    FreeGModule,
    GModule,
    GModuleContext,
    ZGFreeHom,
    cyclic,
    gmodule_context,
    greedy_resolution,
    periodic_resolution,
    symmetric3,
    trivial_module,
)
from extcalc.poset_sheaf import (
    AbPresheaf,
    FreePresheaf,
    PresheafContext,
    PresheafHom,
    bowtie,
    chain,
    make_poset,
    presheaf_context,
    presheaf_hom_group,
)
from extcalc.resolution import (
    FpAbComplex,
    FreeResolution,
    ModuleContext,
    ZContext,
    cohomology,
    cohomology_data,
    cohomology_table,
    ext_n,
    ext_table,
    free_resolution,
    hom_complex,
    lift_chain_map,
    z_context,
    zero_complex,
)
from extcalc.ses import ext1_group

from test_fpab import random_finite_group, random_hom
from test_poset_sheaf import (
    random_cokernel_presheaf,
    random_tree_presheaf,
    small_sites,
)


CTX = z_context()
Z = free_abelian(1)


def random_group(rng, max_gens=4, span=6):
    g = rng.randint(0, max_gens)
    k = rng.randint(0, max_gens)
    rel = IntMatrix(g, k, [[rng.randint(-span, span) for _ in range(k)]
                           for _ in range(g)])
    return make_group(g, rel)


# ---------------------------------------------------------------- resolutions

def test_free_resolution_of_z2():
    # d_1 is mono, so the resolution ends at degree 1
    res = free_resolution(CTX, zmod(2), 3)
    assert [f.gens for f in res.frees] == [1, 1]
    assert res.complete and res.max_deg == 1
    assert abs(res.diff(1).matrix.entry(0, 0)) == 2
    res.validate()


def test_free_resolution_of_z_terminates_immediately():
    res = free_resolution(CTX, Z, 2)
    assert [f.gens for f in res.frees] == [1]
    assert res.complete and res.max_deg == 0
    res.validate()


def test_validate_rejects_inexact_complexes():
    # Z --4--> Z --> Z/2: im(4) = 4Z misses ker = 2Z, so not exact at 0
    aug = make_hom(Z, zmod(2), IntMatrix.from_rows([[1]]))
    four = make_hom(Z, Z, IntMatrix.from_rows([[4]]))
    with pytest.raises(RuntimeError, match="not exact at degree 0"):
        FreeResolution(CTX, zmod(2), [Z, Z], [four], aug).validate()
    zero = fpab.zero_hom(Z, zmod(2))
    with pytest.raises(RuntimeError, match="augmentation is not epi"):
        FreeResolution(CTX, zmod(2), [Z], [], zero).validate()


def test_validate_rejects_a_doubled_norm_over_zg():
    # over C4, t - e then 2N: d∘d is still zero, but 2N·ZG misses the
    # norm element N, which t - e kills
    G = cyclic(4)
    per = periodic_resolution(G, 2)
    per.validate()
    norm2 = ZGFreeHom.from_terms(G, per.free(2), per.free(1),
                                 [[(0, g, 2) for g in range(4)]])
    bad = FreeResolution(per.ctx, per.target, per.frees,
                         [per.diff(1), norm2], per.augmentation)
    with pytest.raises(RuntimeError, match="not exact at degree 1"):
        bad.validate()


@pytest.mark.parametrize("site", [bowtie(), chain(4)],
                         ids=["bowtie", "chain4"])
def test_validate_rejects_a_doubled_d1_over_presheaves(site):
    # ker(aug) is a nonzero subpresheaf of a free one, so im(2·d_1),
    # twice it, is smaller: not exact at degree 0
    rng, ctx, checked = random.Random(4013), presheaf_context(site), 0
    while checked < 3:
        b = random_cokernel_presheaf(rng, site)
        res = free_resolution(ctx, b, 2)
        if not res.max_deg:
            continue
        res.validate()
        d1 = res.diff(1)
        doubled = PresheafHom(d1.src, d1.tgt,
                              [h + h for h in d1.components], check=False)
        bad = FreeResolution(ctx, b, res.frees, [doubled, *res.diffs[1:]],
                             res.augmentation)
        with pytest.raises(RuntimeError, match="not exact at degree 0"):
            bad.validate()
        checked += 1


def test_degrees_below_the_resolution_raise():
    res = free_resolution(CTX, zmod(2), 1)
    with pytest.raises(IndexError):
        res.diff(0)
    with pytest.raises(IndexError):
        res.free(-1)


@pytest.mark.parametrize("cls", [ZContext, GModuleContext, PresheafContext])
def test_contexts_define_the_whole_contract(cls):
    # every public method ModuleContext declares has a body in the
    # context itself or in a base below ModuleContext
    declared = [name for name, value in vars(ModuleContext).items()
                if callable(value) and not name.startswith("_")]
    missing = [name for name in declared
               if getattr(cls, name) is getattr(ModuleContext, name)]
    assert not missing, f"{cls.__name__} leaves {missing} to the stub"


def test_free_resolution_random_validity():
    rng = random.Random(4001)
    for _ in range(15):
        b = random_group(rng)
        res = free_resolution(CTX, b, 3)
        res.validate()
        # over the integers every resolution ends by degree 1
        assert res.complete and res.max_deg <= 1


# ---------------------------------------------------------------- complexes

def two_step_complex(n):
    mult = FpAbHom(Z, Z, IntMatrix.from_rows([[n]]), check=False)
    return FpAbComplex([Z, Z], [mult])


def test_cohomology_of_multiplication_complex():
    c = two_step_complex(2)
    assert cohomology(c, 0).is_trivial()
    assert cohomology(c, 1).canonical_form == (0, (2,))


def test_cohomology_zero_and_identity_complexes():
    zc = zero_complex(3)
    for n in range(4):
        assert cohomology(zc, n).is_trivial()
    idc = FpAbComplex([Z, Z], [identity_hom(Z)])
    assert cohomology(idc, 0).is_trivial()
    assert cohomology(idc, 1).is_trivial()


def test_cohomology_out_of_range():
    with pytest.raises(ValueError):
        cohomology(two_step_complex(2), 2)
    with pytest.raises(ValueError):
        cohomology(two_step_complex(2), -1)


def test_complex_validation():
    with pytest.raises(ValueError):
        FpAbComplex([Z, Z, Z], [identity_hom(Z), identity_hom(Z)])
    from extcalc.exactint import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        FpAbComplex([Z, Z], [identity_hom(zmod(2))])


def test_hom_complex_examples():
    res = free_resolution(CTX, zmod(2), 2)
    c = hom_complex(res, Z)
    assert [g.canonical_form for g in c.groups] == [(1, ()), (1, ())]
    assert abs(c.maps[0].matrix.entry(0, 0)) == 2
    assert cohomology(c, 0).is_trivial()
    assert cohomology(c, 1).canonical_form == (0, (2,))

    zero = make_group(0, IntMatrix.zero(0, 0))
    czero = hom_complex(res, zero)
    assert all(g.is_trivial() for g in czero.groups)

    res_z = free_resolution(CTX, Z, 2)
    a = from_invariants(1, [6])
    cz = hom_complex(res_z, a)
    assert [g.canonical_form for g in cz.groups] == [a.canonical_form]


# ---------------------------------------------------------------- ext_n

def test_ext_n_degree_zero_is_hom():
    rng = random.Random(4002)
    for _ in range(15):
        b, a = random_group(rng), random_group(rng)
        assert ext_n(CTX, b, a, 0).canonical_form == \
            hom_group(b, a).group.canonical_form


def test_ext_n_degree_one_matches_extension_calculus():
    rng = random.Random(4003)
    for _ in range(30):
        b, a = random_group(rng), random_group(rng)
        assert ext_n(CTX, b, a, 1).canonical_form == \
            ext1_group(b, a).group.canonical_form


def test_ext_n_vanishes_in_higher_degrees():
    rng = random.Random(4004)
    for _ in range(15):
        b, a = random_group(rng), random_group(rng)
        for k in (2, 3):
            assert ext_n(CTX, b, a, k).is_trivial()
    assert ext_n(CTX, zmod(6), zmod(4), 1).canonical_form == (0, (2,))
    with pytest.raises(ValueError):
        ext_n(CTX, Z, Z, -1)


def invariant_factor_formula(b, a, n):
    """Canonical form of Ext^n_Z(B, A) from the invariant factors alone.

    With B = Z^r + sum Z/d and A = Z^s + sum Z/e: Hom(B, A) is A^r plus
    Z/gcd(d, e) for every pair, Ext^1(B, A) is the sum of A/dA, and
    every higher Ext vanishes.
    """
    r, ds = b.canonical_form
    s, es = a.canonical_form
    pairs = [math.gcd(d, e) for d in ds for e in es]
    if n == 0:
        rank, factors = r * s, list(es) * r + pairs
    elif n == 1:
        rank, factors = 0, list(ds) * s + pairs
    else:
        rank, factors = 0, []
    return from_invariants(rank, [f for f in factors if f > 1]).canonical_form


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_ext_n_matches_invariant_factor_formula(rng):
    b, a = random_group(rng), random_group(rng)
    for n in range(4):
        assert (ext_n(CTX, b, a, n).canonical_form
                == invariant_factor_formula(b, a, n)), n


@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_ext_table_is_the_single_degrees(rng):
    # one resolution to degree 4 answers every degree below it exactly
    # as its own resolution does, presentation included
    b, a = random_group(rng), random_group(rng)
    table = ext_table(CTX, b, a, range(4))
    for n in range(4):
        assert table[n].group == ext_n(CTX, b, a, n), n


def test_ext_table_rejects_negative_degrees():
    with pytest.raises(ValueError, match="nonnegative"):
        ext_table(CTX, zmod(2), zmod(2), [1, -1])


def test_ext_n_presentation_independent():
    rng = random.Random(4005)
    for _ in range(10):
        b = random_group(rng, max_gens=3)
        a = random_group(rng, max_gens=3)
        # disguise b: permute generators and add a dead one
        g = b.gens + 1
        cols = [[0] * g for _ in range(b.relations.cols)]
        perm = list(range(b.gens))
        rng.shuffle(perm)
        for j in range(b.relations.cols):
            for i in range(b.gens):
                cols[j][perm[i]] = b.relations.entry(i, j)
        cols.append([0] * (g - 1) + [1])
        disguised = make_group(g, IntMatrix.from_cols(cols, rows=g))
        for n in range(4):
            assert ext_n(CTX, disguised, a, n).canonical_form == \
                ext_n(CTX, b, a, n).canonical_form


# ------------------------------------------------------ finite resolutions

def padded_resolution(ctx, b, depth):
    """Cover the kernel to exactly depth, zero kernels included: the
    zero-padded construction, kept as the oracle of the finite one."""
    p0, aug = ctx.epi_cover(b)
    frees, diffs, prev = [p0], [], aug
    for _ in range(depth):
        k, incl = ctx.kernel(prev)
        f, p = ctx.epi_cover(k)
        frees.append(f)
        diffs.append(ctx.compose(incl, p))
        prev = p
    return FreeResolution(ctx, b, frees, diffs, aug, dd_verified=True)


def _z_groups(rng):
    return CTX, random_group(rng), random_group(rng)


def _tree_presheaves(rng, parents=None):
    if parents is None:
        size = rng.randint(1, 5)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]
    b, a = (random_tree_presheaf(rng, parents) for _ in range(2))
    return presheaf_context(b.site), b, a


def _chain_presheaves(rng):
    return _tree_presheaves(rng, [None] + list(range(rng.randint(0, 4))))


def _bowtie_presheaves(rng):
    b, a = (random_cokernel_presheaf(rng, bowtie()) for _ in range(2))
    return presheaf_context(b.site), b, a


@settings(max_examples=80, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       case=st.sampled_from([_z_groups, _tree_presheaves, _chain_presheaves,
                             _bowtie_presheaves]),
       depth=st.integers(1, 4))
def test_finite_resolutions_read_as_the_padded_ones(rng, case, depth):
    # a resolution that ends before depth ends at a zero kernel, and every
    # listed degree reads the group, lattice and class map that the
    # zero-padded resolution's full hom complex gives
    ctx, b, a = case(rng)
    res = free_resolution(ctx, b, depth)
    assert res.max_deg <= depth
    if res.max_deg < depth:
        top = res.diff(res.max_deg) if res.max_deg else res.augmentation
        assert res.complete and ctx.is_zero_hom(ctx.kernel(top)[1])
    degrees = sorted(rng.sample(range(depth), rng.randint(1, depth)))
    table = cohomology_table(res, a, degrees)
    padded = hom_complex(padded_resolution(ctx, b, depth), a)
    for n in degrees:
        want, got = cohomology_data(padded, n), table[n]
        assert got.group == want.group and got.lattice == want.lattice
        # cocycles: lattice combinations plus coboundaries
        span = (hstack(want.lattice, padded.maps[n - 1].matrix) if n
                else want.lattice)
        coeffs = IntMatrix(span.cols, 3, [
            [rng.randint(-3, 3) for _ in range(3)] for _ in range(span.cols)])
        cocycles = span * coeffs
        assert got.classes_of(cocycles) == want.classes_of(cocycles)


def _site_presheaves(site):
    def case(rng):
        b, a = (random_cokernel_presheaf(rng, site) for _ in range(2))
        return presheaf_context(site), b, a
    return case


def _labels(free):
    return getattr(free, "labels", free)  # a free group over Z is itself


def _matrices(h):
    return [c.matrix for c in getattr(h, "components", [h])]


@settings(max_examples=120, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       case=st.sampled_from([_z_groups, _tree_presheaves, _chain_presheaves,
                             _bowtie_presheaves])
       | small_sites().map(_site_presheaves),
       depth=st.integers(1, 4))
def test_one_step_per_degree_is_the_padded_resolution_cut(rng, case, depth):
    # free_resolution's cover_kernel steps build exactly what kernel ->
    # epi_cover -> compose builds, ending at the first zero kernel, where
    # the padded construction covers a zero kernel by a zero free
    ctx, b, _ = case(rng)
    res = free_resolution(ctx, b, depth)
    padded = padded_resolution(ctx, b, depth)
    cut = next((n for n in range(1, depth + 1)
                if not ctx.free_rank(padded.free(n))), depth + 1)
    assert res.complete == (cut <= depth)
    assert [_labels(f) for f in res.frees] == [
        _labels(f) for f in padded.frees[:cut]]
    assert _matrices(res.augmentation) == _matrices(padded.augmentation)
    assert [_matrices(d) for d in res.diffs] == [
        _matrices(d) for d in padded.diffs[:cut - 1]]


def test_degrees_past_the_resolution():
    # past a complete resolution every degree reads the zero group; a
    # truncated one raises past the depth it was asked for
    table = cohomology_table(free_resolution(CTX, zmod(2), 5), Z, [1, 4])
    assert table[1].group.canonical_form == (0, (2,))
    zero = cohomology_data(zero_complex(0), 0)
    assert (table[4].group, table[4].lattice) == (zero.group, zero.lattice)
    s3 = symmetric3()
    with pytest.raises(ValueError, match="past depth 2"):
        cohomology_table(greedy_resolution(s3, 2), trivial_module(s3, Z), [5])


# ---------------------------------------------------------------- lifting

def manual_resolution_of_z2():
    """A non-canonical resolution: rank-2 cover of Z/2."""
    b = zmod(2)
    cover = free_abelian(2)
    aug = make_hom(cover, b, IntMatrix.from_rows([[1, 1]]))
    k, incl = kernel(aug)
    p1 = free_abelian(k.gens)
    d1 = FpAbHom(p1, cover, incl.matrix, check=False)
    k2, incl2 = kernel(d1)
    assert k2.is_trivial()
    p2 = free_abelian(0)
    d2 = FpAbHom(p2, p1, IntMatrix.zero(p1.gens, 0), check=False)
    return FreeResolution(CTX, b, [cover, p1, p2], [d1, d2], aug)


def induced_on_cohomology(chain, p_res, q_res, a, n):
    """H^n(Hom(Q, A)) -> H^n(Hom(P, A)) induced by a chain map P -> Q."""
    dq = cohomology_data(hom_complex(q_res, a), n)
    dp = cohomology_data(hom_complex(p_res, a), n)
    hg_q = CTX.hom_group(q_res.free(n), a)
    hg_p = CTX.hom_group(p_res.free(n), a)
    ind = CTX.induced_precompose(hg_q, hg_p, chain[n])
    cols = [dp.coords_of(ind.matrix * dq.lattice.column_matrix(j)).coords.col(0)
            for j in range(dq.lattice.cols)]
    return FpAbHom(dq.group, dp.group,
                   IntMatrix.from_cols(cols, rows=dp.group.gens), check=True)


def test_lift_identity_chain_map():
    res = free_resolution(CTX, zmod(2), 2)
    chain = lift_chain_map(res, res, identity_hom(zmod(2)))
    for a in (Z, zmod(4)):
        for n in range(2):
            ind = induced_on_cohomology(chain, res, res, a, n)
            assert ind == identity_hom(ind.src)


def test_lift_between_different_resolutions():
    p = free_resolution(CTX, zmod(2), 2)
    q = manual_resolution_of_z2()
    f = identity_hom(zmod(2))
    to_q = lift_chain_map(p, q, f)
    to_p = lift_chain_map(q, p, f)
    # chain-map squares commute
    assert CTX.compose(q.augmentation, to_q[0]) == \
        CTX.compose(f, p.augmentation)
    assert CTX.compose(q.diff(1), to_q[1]) == CTX.compose(to_q[0], p.diff(1))
    # H¹(−, Z) is carried isomorphically both ways
    ind = induced_on_cohomology(to_q, p, q, Z, 1)
    assert ind.src.canonical_form == ind.tgt.canonical_form == (0, (2,))
    from extcalc.fpab import is_epi, is_mono
    assert is_mono(ind) and is_epi(ind)
    # round trip is a chain self-map over the identity: identity on H^n
    both = [CTX.compose(a, b) for a, b in zip(to_p, to_q)]
    for n in range(2):
        rt = induced_on_cohomology(both, p, p, Z, n)
        assert rt == identity_hom(rt.src)


def test_lift_zero_map():
    res = free_resolution(CTX, zmod(4), 2)
    chain = lift_chain_map(res, res, fpab.zero_hom(zmod(4), zmod(4)))
    assert chain[0].is_zero()
    # composing with the augmentation gives the zero map in every degree
    assert CTX.compose(res.augmentation, chain[0]).is_zero()


def test_lift_functoriality_on_cohomology():
    rng = random.Random(4006)
    b = from_invariants(0, [4])
    p = free_resolution(CTX, b, 2)
    q = manual_resolution_of_z2()
    # f : Z/4 -> Z/2 quotient, g = id on Z/2
    f = make_hom(b, zmod(2), IntMatrix.from_rows([[1]]))
    chain_f = lift_chain_map(p, q, f)
    r = free_resolution(CTX, zmod(2), 2)
    g = identity_hom(zmod(2))
    chain_g = lift_chain_map(q, r, g)
    composite = [CTX.compose(cg, cf) for cf, cg in zip(chain_f, chain_g)]
    direct = lift_chain_map(p, r, CTX.compose(g, f))
    for a in (Z, zmod(8)):
        for n in range(2):
            via_two = induced_on_cohomology(composite, p, r, a, n)
            via_one = induced_on_cohomology(direct, p, r, a, n)
            assert via_two == via_one


def _random_z_map(rng):
    """A random hom between random finite groups, over the Z context."""
    b, b2 = random_finite_group(rng, 12), random_finite_group(rng, 12)
    return CTX, random_hom(rng, b, b2)


def _random_presheaf_map(rng):
    """A random natural map between random presheaves on a tree of at
    most five elements."""
    size = rng.randint(1, 5)
    parents = [None] + [rng.randrange(i) for i in range(1, size)]
    b, b2 = (random_tree_presheaf(rng, parents) for _ in range(2))
    phg = presheaf_hom_group(b, b2)
    f = phg.hom_of(IntMatrix.column([rng.randint(-2, 2)
                                     for _ in range(phg.group.gens)]))
    return presheaf_context(b.site), f


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       case=st.sampled_from([_random_z_map, _random_presheaf_map]))
def test_lift_chain_map_commutes_with_both_resolutions(rng, case):
    ctx, f = case(rng)
    depth = rng.randint(1, 3)
    p = free_resolution(ctx, f.src, depth)
    q = free_resolution(ctx, f.tgt, depth)
    chain = lift_chain_map(p, q, f)
    assert len(chain) == min(p.max_deg, q.max_deg) + 1
    assert ctx.compose(q.augmentation, chain[0]) == \
        ctx.compose(f, p.augmentation)
    for n in range(1, len(chain)):
        assert ctx.compose(q.diff(n), chain[n]) == \
            ctx.compose(chain[n - 1], p.diff(n))


# ------------------------------------------- hom out of a free, all contexts

def test_hom_group_needs_a_free_source():
    with pytest.raises(NotFree):
        CTX.hom_group(zmod(2), Z)
    c2 = cyclic(2)
    triv = trivial_module(c2, Z)
    with pytest.raises(NotFree):
        gmodule_context(c2).hom_group(triv, triv)
    site = make_poset(2, [(0, 1)])
    const = AbPresheaf(site, [Z, Z], {(0, 1): identity_hom(Z)})
    with pytest.raises(NotFree):
        presheaf_context(site).hom_group(const, const)


def _z_case(rng):
    """A map of frees d : Z^s -> Z^r and a random small presented A."""
    r, s = rng.randint(0, 3), rng.randint(0, 3)
    d = FpAbHom(free_abelian(s), free_abelian(r),
                IntMatrix(r, s, [[rng.randint(-3, 3) for _ in range(s)]
                                 for _ in range(r)]), check=False)

    def at_units(h):
        return [x for j in range(h.matrix.cols) for x in h.matrix.col(j)]

    return CTX, d, random_group(rng, max_gens=3, span=4), at_units


# sign characters of C2 and S3, elements in groupring's table order
_SIGNS = {2: (1, -1), 6: (1, -1, -1, 1, 1, -1)}


def _permutation_module(G, a):
    """A[G]: |G| copies of A, permuted by left translation."""
    n, k = G.order, a.gens
    m, _ = fpab.direct_sum_many([a] * n)
    acts = []
    for g in range(n):
        rows = [[0] * (n * k) for _ in range(n * k)]
        for h in range(n):
            for u in range(k):
                rows[G.table[g][h] * k + u][h * k + u] = 1
        acts.append(FpAbHom(m, m, IntMatrix(n * k, n * k, rows)))
    return GModule(G, m, acts)


def _zg_case(rng):
    """A random ZG^s -> ZG^r over C2, C3 or S3, with a trivial, sign or
    permutation coefficient module on a random small group."""
    G = rng.choice((cyclic(2), cyclic(3), symmetric3()))
    a = random_group(rng, max_gens=2, span=4)
    kinds = ["trivial", "permutation"] + (["sign"] if G.order in _SIGNS
                                          else [])
    kind = rng.choice(kinds)
    if kind == "trivial":
        module = trivial_module(G, a)
    elif kind == "sign":
        ident = identity_hom(a)
        module = GModule(G, a, [ident if s > 0 else -ident
                                for s in _SIGNS[G.order]])
    else:
        module = _permutation_module(G, a)
    r, s = rng.randint(0, 2), rng.randint(0, 2)
    raw = [[(rng.randrange(r), rng.randrange(G.order), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 3) if r else 0)]
           for _ in range(s)]
    d = ZGFreeHom.from_terms(G, FreeGModule(G, s), FreeGModule(G, r), raw)
    if rng.random() < 0.5:
        d = d.dense()
    n, e = G.order, G.identity

    def at_units(h):
        return [x for j in range(r) for x in h.ab.matrix.col(j * n + e)]

    return gmodule_context(G), d, module, at_units


def _presheaf_case(rng):
    """A random map P -> F of sums of representables on a tree of at most
    five elements, and a random presheaf there."""
    size = rng.randint(1, 5)
    parents = [None] + [rng.randrange(i) for i in range(1, size)]
    a = random_tree_presheaf(rng, parents)
    ctx = presheaf_context(a.site)
    f, p = (FreePresheaf(a.site, [rng.randrange(size)
                                  for _ in range(rng.randint(0, 3))])
            for _ in range(2))
    # Yoneda: the unit of P at l may go anywhere in F(l)
    units = [IntMatrix.column([rng.randint(-2, 2) for _ in f.support(l)])
             for l in p.labels]
    d = ctx.extend_units(p, f, units)
    d = PresheafHom(d.src, d.tgt, d.components, check=True)

    def at_units(h):
        return [x for i, l in enumerate(f.labels)
                for x in h.components[l].matrix.col(f.support(l).index(i))]

    return ctx, d, a, at_units


@pytest.mark.parametrize("make_case", [_z_case, _zg_case, _presheaf_case],
                         ids=["z", "zg", "presheaf"])
@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_free_hom_group_matches_composition(make_case, rng):
    # d : F' -> F; hg_src is Hom(F, A) and hg_tgt is Hom(F', A)
    ctx, d, a, at_units = make_case(rng)
    hg_src = ctx.hom_group(d.tgt, a)
    hg_tgt = ctx.hom_group(d.src, a)
    x = IntMatrix.column([rng.randint(-3, 3)
                          for _ in range(hg_src.group.gens)])
    ind = ctx.induced_precompose(hg_src, hg_tgt, d)
    assert (hg_tgt.hom_of(ind.matrix * x)
            == ctx.compose(hg_src.hom_of(x), d))
    assert (hg_src.group.element(at_units(hg_src.hom_of(x)))
            == hg_src.group.element(x))
