"""End-to-end acceptance checks with pinned wall-clock budgets.

Ten independent checks, each printing one PASS or FAIL line (visible
under pytest -s) and asserting both the mathematical outcome and the
time budget.  All numeric comparisons are exact; only the clock has a
tolerance, namely the budget itself.
"""

import itertools
import math
import random
import time

from extcalc import fpab, groupring, poset_sheaf, resolution, ses
from extcalc.exactint import IntMatrix
from extcalc.fpab import FpAbHom

BUDGETS = {1: 1.0, 2: 1.0, 3: 5.0, 4: 10.0, 5: 5.0,
           6: 10.0, 7: 60.0, 8: 5.0, 9: 30.0, 10: 60.0}


def _timed(num, body):
    limit = BUDGETS[num]
    start = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok and elapsed < limit else "FAIL"
        print(f"criterion {num:2d}: {verdict} "
              f"({elapsed:.2f}s, budget {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s"


def _sierpinski_data():
    site = poset_sheaf.chain(2)
    quot = poset_sheaf.AbPresheaf(
        site, [fpab.make_group(0), fpab.zmod(2)],
        {(0, 1): fpab.zero_hom(fpab.zmod(2), fpab.make_group(0))})
    y0 = poset_sheaf.free_presheaf(site, 0)
    return site, quot, y0


def test_criterion_01_sierpinski_sheaf_ext():
    def body():
        _, quot, y0 = _sierpinski_data()
        result = poset_sheaf.sheaf_ext(quot, y0, 2)
        # the answer is the argument itself: trivial stalk below, Z/2 on top
        assert result.presheaf.stalk(0).canonical_form == (0, ())
        assert result.presheaf.stalk(1).canonical_form == (0, (2,))
    _timed(1, body)


def test_criterion_02_global_points_agree():
    def body():
        _, quot, y0 = _sierpinski_data()
        result = poset_sheaf.sheaf_ext(quot, y0, 2)
        gamma = poset_sheaf.global_sections(result.presheaf)
        ext = poset_sheaf.external_ext(quot, y0, 2)
        assert gamma.canonical_form == (0, (2,))
        assert ext.canonical_form == (0, (2,))
        assert gamma.canonical_form == ext.canonical_form
    _timed(2, body)


def test_criterion_03_ext1_cyclic_formula():
    def body():
        ctx = resolution.z_context()
        z = fpab.free_abelian(1)
        for n in range(1, 13):
            zn = fpab.zmod(n)
            for m in range(1, 13):
                g = math.gcd(n, m)
                predicted = (0, (g,)) if g > 1 else (0, ())
                via_classes = ses.ext1_group(zn, fpab.zmod(m)).group
                via_resolution = resolution.ext_n(ctx, zn, fpab.zmod(m), 1)
                assert via_classes.canonical_form == predicted, (n, m)
                assert via_resolution.canonical_form == predicted, (n, m)
            predicted = (0, (n,)) if n > 1 else (0, ())
            assert ses.ext1_group(zn, z).group.canonical_form == predicted
            assert resolution.ext_n(ctx, zn, z, 1).canonical_form == predicted
    _timed(3, body)


def _random_fp_group(rng):
    gens = rng.randrange(1, 5)
    rels = rng.randrange(0, gens + 2)
    cols = [[rng.randrange(-6, 7) for _ in range(gens)]
            for _ in range(rels)]
    return fpab.make_group(gens, IntMatrix.from_cols(cols, rows=gens))


def test_criterion_04_higher_ext_vanishes_over_z():
    def body():
        rng = random.Random(404)
        ctx = resolution.z_context()
        for _ in range(30):
            b = _random_fp_group(rng)
            a = _random_fp_group(rng)
            for k in (2, 3):
                assert resolution.ext_n(ctx, b, a, k).canonical_form \
                    == (0, ())
    _timed(4, body)


def _all_classes(ext):
    # small groups only; coordinates run over a box wide enough to hit
    # every residue class of the presentation
    seen = []
    for coords in itertools.product(range(5), repeat=ext.group.gens):
        cls = ext.class_element(IntMatrix.column(list(coords)))
        if cls not in seen:
            seen.append(cls)
    return seen


def test_criterion_05_baer_sum_group_laws():
    def body():
        z = fpab.free_abelian(1)
        pairs = ((fpab.zmod(2), fpab.zmod(2)),
                 (fpab.zmod(4), z),
                 (fpab.zmod(4), fpab.zmod(6)))
        for b, a in pairs:
            ext = ses.ext1_group(b, a)
            classes = _all_classes(ext)
            seqs = [ses.realize_class(c) for c in classes]
            zero_seq = ses.realize_class(ext.zero_class())
            for x, ex in zip(classes, seqs):
                for y, ey in zip(classes, seqs):
                    left = ses.class_of(ses.baer_sum(ex, ey), ext)
                    right = ses.class_of(ses.baer_sum(ey, ex), ext)
                    assert left == x + y == right
                    for ez in seqs:
                        lhs = ses.baer_sum(ses.baer_sum(ex, ey), ez)
                        rhs = ses.baer_sum(ex, ses.baer_sum(ey, ez))
                        assert ses.class_of(lhs, ext) \
                            == ses.class_of(rhs, ext)
                assert ses.class_of(ses.baer_sum(ex, zero_seq), ext) == x
                inverse = ses.realize_class(-x)
                assert ses.is_split(ses.baer_sum(ex, inverse)) is not None
        # the specific fact: nonsplit + nonsplit = split over (Z/2, Z/2)
        ext = ses.ext1_group(fpab.zmod(2), fpab.zmod(2))
        nonsplit = next(c for c in _all_classes(ext) if not c.is_zero())
        e = ses.realize_class(nonsplit)
        assert ses.is_split(e) is None
        assert ses.is_split(ses.baer_sum(e, e)) is not None
    _timed(5, body)


def test_criterion_06_six_term_exactness():
    def body():
        rng = random.Random(606)
        for _ in range(20):
            b = fpab.zmod(rng.randrange(1, 13))
            a = fpab.zmod(rng.randrange(1, 13))
            ext = ses.ext1_group(b, a)
            coords = IntMatrix.column([rng.randrange(0, 6)
                                       for _ in range(ext.group.gens)])
            e = ses.realize_class(ext.class_element(coords))
            m = fpab.zmod(rng.randrange(1, 13))
            for variance in ("covariant", "contravariant"):
                _, _, report = ses.six_term(e, m, variance)
                assert report.interior == [True, True, True, True]
                assert report.all_exact()
        # worked instance: Z --2--> Z ->> Z/2 against M = Z/2
        z = fpab.free_abelian(1)
        z2 = fpab.zmod(2)
        e = ses.make_ses(FpAbHom(z, z, IntMatrix.from_rows([[2]])),
                         FpAbHom(z, z2, IntMatrix.from_rows([[1]])))
        forms = {}
        for variance in ("covariant", "contravariant"):
            groups, _, report = ses.six_term(e, z2, variance)
            assert report.all_exact()
            forms[variance] = [g.canonical_form for g in groups]
        t = (0, (2,))
        assert forms["covariant"] == [(0, ()), (0, ()), t, t, t, t]
        assert forms["contravariant"] == [t, t, t, t, (0, ()), (0, ())]
    _timed(6, body)


def _all_endomorphisms(m):
    ds = m.canonical_form[1]
    k = len(ds)
    if k == 0:
        return [fpab.identity_hom(m)]
    per_entry = [range(ds[i]) for i in range(k) for _ in range(k)]
    out = []
    for flat in itertools.product(*per_entry):
        rows = [list(flat[i * k:(i + 1) * k]) for i in range(k)]
        try:
            out.append(FpAbHom(m, m, IntMatrix.from_rows(rows, cols=k)))
        except fpab.IllDefined:
            continue
    return out


def _automorphisms(m):
    return [h for h in _all_endomorphisms(m)
            if fpab.is_mono(h) and fpab.is_epi(h)]


def _generating_set(G):
    for size in range(G.order + 1):
        for cand in itertools.combinations(range(G.order), size):
            seen = {G.identity}
            frontier = [G.identity]
            while frontier:
                x = frontier.pop()
                for g in cand:
                    y = G.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if len(seen) == G.order:
                return cand
    raise AssertionError("group does not generate itself")


def _bfs_tree(G, gens):
    order = [(G.identity, None, None)]
    seen = {G.identity}
    queue = [G.identity]
    while queue:
        x = queue.pop(0)
        for i, g in enumerate(gens):
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                order.append((y, x, i))
                queue.append(y)
    return order


def _hom_power(h, k, ident):
    out = ident
    for _ in range(k):
        out = fpab.compose(out, h)
    return out


def _all_actions(G, m):
    """Every G-action on m, as a per-element list of automorphisms.

    Candidate generator images are filtered by element order, extended
    along a spanning tree of the Cayley graph, then verified against the
    full multiplication table, so no convention can leak through.
    """
    ident = fpab.identity_hom(m)
    auts = _automorphisms(m)
    gens = _generating_set(G)
    tree = _bfs_tree(G, gens)
    pools = [[a for a in auts
              if _hom_power(a, G.element_order(g), ident) == ident]
             for g in gens]
    found = []
    for images in itertools.product(*pools):
        phi = {G.identity: ident}
        for y, x, i in tree[1:]:
            phi[y] = fpab.compose(phi[x], images[i])
        if all(phi[G.mul(a, b)] == fpab.compose(phi[a], phi[b])
               for a in range(G.order) for b in range(G.order)):
            found.append([phi[g] for g in range(G.order)])
    return found


def test_criterion_07_group_cohomology_vs_oracles():
    def body():
        # cyclic groups, degrees 0..4: bar complex against the 2-periodic
        # resolution, which shares no construction code with it
        for order in range(1, 7):
            G = groupring.cyclic(order)
            triv = groupring.trivial_module(G, fpab.free_abelian(1))
            bar = resolution.hom_complex(
                groupring.bar_resolution(G, 5), triv)
            per = resolution.hom_complex(
                groupring.periodic_resolution(G, 5), triv)
            for n in range(5):
                got = resolution.cohomology_data(bar, n).group
                check = resolution.cohomology_data(per, n).group
                if n == 0:
                    expected = (1, ())
                elif n % 2 == 1 or order == 1:
                    expected = (0, ())
                else:
                    expected = (0, (order,))
                assert got.canonical_form == expected, (order, n)
                assert check.canonical_form == expected, (order, n)

        # H^1 against crossed homomorphisms for every group of order
        # at most 6, every abelian module of order at most 8, and every
        # action of the former on the latter
        groups = [groupring.cyclic(k) for k in range(1, 7)]
        groups += [groupring.klein_four(), groupring.symmetric3()]
        modules = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,),
                   (2, 4), (2, 2, 2)]
        checked = 0
        for G in groups:
            for facs in modules:
                m = fpab.from_invariants(0, facs)
                for action in _all_actions(G, m):
                    gm = groupring.GModule(G, m, action)
                    bar_h1 = groupring.group_cohomology(G, gm, 1)
                    oracle = groupring.h1_crossed(G, gm)
                    assert bar_h1.canonical_form \
                        == oracle.canonical_form, (G, facs)
                    checked += 1
        assert checked > 700

        # spot anchors with independently known values
        c2 = groupring.cyclic(2)
        h = groupring.group_cohomology(
            c2, groupring.trivial_module(c2, fpab.zmod(2)), 1)
        assert h.canonical_form == (0, (2,))
        v4 = groupring.klein_four()
        h = groupring.group_cohomology(
            v4, groupring.trivial_module(v4, fpab.zmod(2)), 1)
        assert h.canonical_form == (0, (2, 2))
    _timed(7, body)


def test_criterion_08_internal_external_contrast():
    def body():
        G = groupring.cyclic(2)
        triv = groupring.trivial_module(G, fpab.free_abelian(1))
        over_zg = resolution.ext_n(groupring.gmodule_context(G),
                                   triv, triv, 2)
        assert over_zg.canonical_form == (0, (2,))
        z = fpab.free_abelian(1)
        over_z = resolution.ext_n(resolution.z_context(), z, z, 2)
        assert over_z.canonical_form == (0, ())

        # augmentation ZG ->> Z has no equivariant section.  A section
        # sends 1 to a fixed point, and the fixed subgroup of ZG is
        # generated by the norm, on which augmentation takes value 2;
        # checking that one generator is therefore exhaustive.
        zg = groupring.group_ring_module(G, 1)
        aug_ab = FpAbHom(zg.M, triv.M,
                         IntMatrix.from_rows([[1, 1]]))
        groupring.GModuleHom(zg, triv, aug_ab)
        assert fpab.is_epi(aug_ab)
        fixed, incl = groupring.fixed_points(zg)
        assert fixed.canonical_form == (1, ())
        on_fixed = fpab.compose(aug_ab, incl)
        assert abs(on_fixed.matrix.entry(0, 0)) == 2
    _timed(8, body)


_STALK_POOL = ((0, ()), (1, ()), (0, (2,)), (0, (4,)), (0, (6,)),
               (1, (2,)))


def _random_hom(rng, a, b):
    hg = fpab.hom_group(a, b)
    coords = [rng.randrange(-2, 3) for _ in range(hg.group.gens)]
    return hg.hom_of(IntMatrix.column(coords))


def _random_tree_presheaf(rng, parents):
    """Presheaf on the tree where parents[c] sits below c.

    Only edge maps are chosen at random; longer restrictions compose
    along the unique path, so functoriality holds by construction.
    """
    n = len(parents)
    site = poset_sheaf.make_poset(
        n, [(p, c) for c, p in enumerate(parents) if p is not None])
    stalks = [fpab.from_invariants(*rng.choice(_STALK_POOL))
              for _ in range(n)]
    edge = {c: _random_hom(rng, stalks[c], stalks[p])
            for c, p in enumerate(parents) if p is not None}
    res = {}
    for d, c in site.strict_pairs():
        h, x = edge[c], parents[c]
        while x != d:
            h = fpab.compose(edge[x], h)
            x = parents[x]
        res[(d, c)] = h
    return site, poset_sheaf.AbPresheaf(site, stalks, res)


def test_criterion_09_fast_path_agreement():
    def body():
        rng = random.Random(909)
        shapes = ([None, 0], [None, 0, 1], [None, 0, 1, 2],
                  [None, 0, 0, 1, 1], [None, 0, 0, 1, 1, 2])
        pairs = 0
        for parents in shapes:
            for _ in range(2):
                site, b = _random_tree_presheaf(rng, parents)
                _, a = _random_tree_presheaf(rng, parents)
                assert poset_sheaf.principal_intersection_check(site)
                for n in range(4):
                    slow = poset_sheaf.sheaf_ext(b, a, n, method="general")
                    fast = poset_sheaf.sheaf_ext(b, a, n, method="fast")
                    for c in site.elements():
                        assert slow.presheaf.stalk(c).canonical_form \
                            == fast.presheaf.stalk(c).canonical_form
                    gs = poset_sheaf.global_sections(slow.presheaf)
                    gf = poset_sheaf.global_sections(fast.presheaf)
                    assert gs.canonical_form == gf.canonical_form
                pairs += 1
        assert pairs == 10
    _timed(9, body)


def test_criterion_10_projectivity_witness():
    def body():
        site = poset_sheaf.bowtie()
        found = poset_sheaf.witness_search(site, 3)
        assert found is not None
        sigma, stalk = found
        assert poset_sheaf.is_epi(sigma)

        # substitute the witness back in: restrict everything to the
        # down-set of the reported stalk and rebuild the induced map on
        # hom groups from scratch
        sub, elems = site.down_poset(stalk)
        yc = poset_sheaf.free_presheaf(site, 3).restrict(elems)
        f_r = sigma.src.restrict(elems)
        g_r = sigma.tgt.restrict(elems)
        hg_f = poset_sheaf.presheaf_hom_group(yc, f_r)
        hg_g = poset_sheaf.presheaf_hom_group(yc, g_r)
        cols = []
        for phi in hg_f.basis:
            comps = [fpab.compose(sigma.components[elems[k]],
                                  phi.components[k])
                     for k in range(len(elems))]
            psi = poset_sheaf.PresheafHom(yc, g_r, comps)
            cols.append(hg_g.coords_of(psi).coords.col(0))
        induced = FpAbHom(hg_f.group, hg_g.group,
                          IntMatrix.from_cols(cols, rows=hg_g.group.gens))
        assert not hg_g.group.is_trivial()
        assert not fpab.is_epi(induced)

        # the same bounded search on the Sierpinski site reports nothing
        assert poset_sheaf.witness_search(poset_sheaf.chain(2), 0) is None
    _timed(10, body)
