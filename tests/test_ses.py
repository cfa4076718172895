"""Tests for the extension calculus.

Class coordinates and are_equivalent are two independent ways to decide
whether extensions coincide; several tests insist they agree.  Frozen
values come from the cyclic-group formula Ext¹(Z/n, A) = A/nA, which is
also enforced internally at every Ext¹ construction.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from extcalc.exactint import IntMatrix
from extcalc.fpab import (
    DimensionMismatch,
    FpAbHom,
    compose,
    direct_sum,
    free_abelian,
    from_invariants,
    hom_group,
    identity_hom,
    make_hom,
    make_group,
    zero_hom,
    zmod,
)
from extcalc.ses import (
    NotEpi,
    NotExact,
    NotMono,
    are_equivalent,
    baer_sum,
    class_of,
    ext1_group,
    ext1_pullback,
    ext1_pushforward,
    is_split,
    make_ses,
    morphism_between,
    pullback_ses,
    pushout_ses,
    realize_class,
    six_term,
    split_ses,
)


Z = free_abelian(1)


def seq_z_mult_quot(n):
    """Z --xn--> Z --> Z/n."""
    i = make_hom(Z, Z, IntMatrix.from_rows([[n]]))
    p = make_hom(Z, zmod(n), IntMatrix.from_rows([[1]]))
    return make_ses(i, p)


def random_finite(rng, choices=((2,), (3,), (4,), (2, 2), (6,), (2, 4))):
    return from_invariants(0, list(rng.choice(choices)))


def random_class_setup(rng):
    b = random_finite(rng)
    a = random_finite(rng)
    g = ext1_group(b, a)
    return a, b, g


def random_class(rng, g):
    coords = IntMatrix.column([rng.randint(-3, 3) for _ in range(g.group.gens)])
    return g.class_element(coords)


# ---------------------------------------------------------------- make_ses

def test_make_ses_examples():
    e = seq_z_mult_quot(2)
    assert e.B.canonical_form == (0, (2,))
    s = split_ses(zmod(3), zmod(4))
    assert s.E.canonical_form == (0, (12,))
    i4 = make_hom(Z, Z, IntMatrix.from_rows([[4]]))
    p2 = make_hom(Z, zmod(2), IntMatrix.from_rows([[1]]))
    with pytest.raises(NotExact):
        make_ses(i4, p2)


def test_make_ses_rejections():
    with pytest.raises(NotMono):
        make_ses(zero_hom(zmod(2), zmod(4)),
                 make_hom(zmod(4), zmod(2), IntMatrix.from_rows([[1]])))
    with pytest.raises(NotEpi):
        make_ses(make_hom(zmod(2), zmod(4), IntMatrix.from_rows([[2]])),
                 make_hom(zmod(4), zmod(4), IntMatrix.from_rows([[2]])))
    with pytest.raises(NotExact):
        # p∘i nonzero
        make_ses(identity_hom(zmod(2)),
                 make_hom(zmod(2), zmod(2), IntMatrix.from_rows([[1]])))
    with pytest.raises(DimensionMismatch):
        make_ses(identity_hom(zmod(2)), identity_hom(zmod(3)))


# ---------------------------------------------------------------- splitting

def test_is_split_examples():
    s = split_ses(zmod(2), zmod(3))
    sec = is_split(s)
    assert sec is not None and compose(s.p, sec) == identity_hom(s.B)

    assert is_split(seq_z_mult_quot(2)) is None

    t = split_ses(zmod(2), zmod(2))
    sec = is_split(t)
    assert sec is not None and compose(t.p, sec) == identity_hom(t.B)


def test_is_split_infinite_quotient():
    # Z --(1,0)--> Z^2 --(0,1)--> Z always splits
    i = make_hom(Z, free_abelian(2), IntMatrix.from_cols([(1, 0)], rows=2))
    p = make_hom(free_abelian(2), Z, IntMatrix.from_rows([[0, 1]]))
    e = make_ses(i, p)
    sec = is_split(e)
    assert sec is not None and compose(p, sec) == identity_hom(Z)


# ---------------------------------------------------------------- pushout / pullback

def test_pushout_examples():
    e = seq_z_mult_quot(2)
    same = pushout_ses(identity_hom(Z), e)
    assert are_equivalent(e, same) is not None

    quot = make_hom(Z, zmod(2), IntMatrix.from_rows([[1]]))
    pushed = pushout_ses(quot, e)
    assert pushed.E.canonical_form == (0, (4,))
    assert pushed.A.canonical_form == (0, (2,))
    assert is_split(pushed) is None

    killed = pushout_ses(zero_hom(Z, zmod(5)), e)
    assert is_split(killed) is not None


def test_pullback_examples():
    e = seq_z_mult_quot(2)
    same = pullback_ses(identity_hom(zmod(2)), e)
    assert are_equivalent(e, same) is not None
    g = ext1_group(zmod(2), Z)
    assert class_of(same, g) == class_of(e, g)
    assert not class_of(e, g).is_zero()

    zero_grp = make_group(0, IntMatrix.zero(0, 0))
    degenerate = pullback_ses(zero_hom(zero_grp, zmod(2)), e)
    assert degenerate.B.is_trivial()
    assert degenerate.E.canonical_form == (1, ())


def test_pushout_mismatch():
    e = seq_z_mult_quot(2)
    with pytest.raises(DimensionMismatch):
        pushout_ses(identity_hom(zmod(3)), e)
    with pytest.raises(DimensionMismatch):
        pullback_ses(identity_hom(zmod(3)), e)


# ---------------------------------------------------------------- ext1 group

def test_ext1_frozen_values():
    for n in (2, 3, 4, 6, 12):
        assert ext1_group(zmod(n), Z).group.canonical_form == (0, (n,))
    for a in (Z, zmod(6), from_invariants(2, [4])):
        assert ext1_group(Z, a).group.is_trivial()
    assert ext1_group(zmod(4), zmod(6)).group.canonical_form == (0, (2,))
    assert ext1_group(zmod(2), zmod(3)).group.is_trivial()


def test_ext1_formula_random():
    # the constructor itself cross-checks against the invariant-factor
    # formula and raises on mismatch, so building many instances is the test
    rng = random.Random(3001)
    for _ in range(25):
        gens = rng.randint(1, 3)
        k = rng.randint(0, 3)
        b = make_group(gens, IntMatrix(
            gens, k, [[rng.randint(-6, 6) for _ in range(k)] for _ in range(gens)]))
        a = random_finite(rng)
        ext1_group(b, a)


def test_ext1_additivity():
    rng = random.Random(3002)
    for _ in range(20):
        b1, b2 = random_finite(rng), random_finite(rng)
        a = random_finite(rng)
        whole = ext1_group(direct_sum(b1, b2).group, a).group
        p1 = ext1_group(b1, a).group
        p2 = ext1_group(b2, a).group
        assert whole.canonical_form == direct_sum(p1, p2).group.canonical_form


# ---------------------------------------------------------------- classes

def test_class_of_examples():
    g = ext1_group(zmod(2), Z)
    assert g.group.canonical_form == (0, (2,))
    assert class_of(split_ses(Z, zmod(2)), g).is_zero()
    assert not class_of(seq_z_mult_quot(2), g).is_zero()


def test_class_realize_roundtrip():
    rng = random.Random(3003)
    for _ in range(20):
        a, b, g = random_class_setup(rng)
        c = random_class(rng, g)
        e = realize_class(c)
        assert e.A == a and e.B == b
        assert class_of(e, g) == c
        # the reference sequence is built once per group and shared
        assert g.canonical_presentation() is g.canonical_presentation()


def test_class_zero_iff_split():
    rng = random.Random(3004)
    for _ in range(15):
        a, b, g = random_class_setup(rng)
        c = random_class(rng, g)
        e = realize_class(c)
        sec = is_split(e)
        assert (sec is not None) == c.is_zero()
        if sec is not None:
            assert compose(e.p, sec) == identity_hom(e.B)


def test_class_equality_agrees_with_equivalence():
    rng = random.Random(3005)
    for _ in range(15):
        a, b, g = random_class_setup(rng)
        e = realize_class(random_class(rng, g))
        f = realize_class(random_class(rng, g))
        same_class = class_of(e, g) == class_of(f, g)
        witness = are_equivalent(e, f)
        assert same_class == (witness is not None)


# ---------------------------------------------------------------- baer sum

def test_baer_sum_frozen_examples():
    e = seq_z_mult_quot(2)
    g = ext1_group(zmod(2), Z)
    s = split_ses(Z, zmod(2))
    assert are_equivalent(baer_sum(e, s), e) is not None

    # nonsplit + nonsplit over Ext¹(Z/2, Z/2) = Z/2
    quot = make_hom(Z, zmod(2), IntMatrix.from_rows([[1]]))
    nonsplit = pushout_ses(quot, e)  # Z/2 -> Z/4 -> Z/2
    assert is_split(baer_sum(nonsplit, nonsplit)) is not None

    # coordinate arithmetic in Ext¹(Z/4, Z) = Z/4
    e1 = seq_z_mult_quot(4)
    g4 = ext1_group(zmod(4), Z)
    c1 = class_of(e1, g4)
    c2 = class_of(baer_sum(e1, e1), g4)
    assert c2 == c1 + c1 and not c2.is_zero()
    assert are_equivalent(baer_sum(e1, e1), realize_class(c1 + c1)) is not None


def test_baer_sum_group_laws():
    rng = random.Random(3006)
    for _ in range(10):
        a, b, g = random_class_setup(rng)
        e = realize_class(random_class(rng, g))
        f = realize_class(random_class(rng, g))
        h = realize_class(random_class(rng, g))
        assert class_of(baer_sum(e, f), g) == class_of(e, g) + class_of(f, g)
        assert class_of(baer_sum(e, f), g) == class_of(baer_sum(f, e), g)
        assert class_of(baer_sum(baer_sum(e, f), h), g) == \
            class_of(baer_sum(e, baer_sum(f, h)), g)
        assert class_of(baer_sum(e, split_ses(a, b)), g) == class_of(e, g)
        neg = FpAbHom(a, a, -IntMatrix.identity(a.gens), check=False)
        assert (class_of(e, g) + class_of(pushout_ses(neg, e), g)).is_zero()


# ---------------------------------------------------------------- functoriality

def test_pushforward_pullback_on_classes():
    rng = random.Random(3007)
    for _ in range(12):
        a, b, g = random_class_setup(rng)
        a2 = random_finite(rng)
        b2 = random_finite(rng)
        f = rng.choice(hom_group(a, a2).basis or [zero_hom(a, a2)])
        h = rng.choice(hom_group(b2, b).basis or [zero_hom(b2, b)])
        e = realize_class(random_class(rng, g))

        g_push = ext1_group(b, a2)
        fwd = ext1_pushforward(f, g, g_push)
        pushed_coords = fwd(class_of(e, g).coords)
        assert class_of(pushout_ses(f, e), g_push).coords == pushed_coords

        g_pull = ext1_group(b2, a)
        bwd = ext1_pullback(h, g, g_pull)
        pulled_coords = bwd(class_of(e, g).coords)
        assert class_of(pullback_ses(h, e), g_pull).coords == pulled_coords


def random_group_for_ses(rng):
    if rng.random() < 0.25:
        return from_invariants(rng.randint(1, 2), rng.choice(((), (2,))))
    return random_finite(rng)


def random_linear_hom(rng, a, b):
    hg = hom_group(a, b)
    return hg.hom_of(IntMatrix.column([rng.randint(-2, 2)
                                       for _ in range(hg.group.gens)]))


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_constructed_sequences_pass_make_ses(rng):
    # pushout, pullback, realize_class and baer_sum build their sequences
    # unchecked; make_ses checks every axiom of the result again
    a, b = random_group_for_ses(rng), random_group_for_ses(rng)
    g = ext1_group(b, a)
    e, f = (realize_class(random_class(rng, g)) for _ in range(2))
    a2, b2 = random_group_for_ses(rng), random_group_for_ses(rng)
    built = [e, f, baer_sum(e, f),
             pushout_ses(random_linear_hom(rng, a, a2), e),
             pullback_ses(random_linear_hom(rng, b2, b), e)]
    for s in built:
        checked = make_ses(s.i, s.p)
        assert (checked.A, checked.E, checked.B) == (s.A, s.E, s.B)


def test_pushout_pullback_commute_on_classes():
    rng = random.Random(3008)
    for _ in range(12):
        a, b, g = random_class_setup(rng)
        a2 = random_finite(rng)
        b2 = random_finite(rng)
        f = rng.choice(hom_group(a, a2).basis or [zero_hom(a, a2)])
        h = rng.choice(hom_group(b2, b).basis or [zero_hom(b2, b)])
        e = realize_class(random_class(rng, g))
        target = ext1_group(b2, a2)
        one = class_of(pullback_ses(h, pushout_ses(f, e)), target)
        two = class_of(pushout_ses(f, pullback_ses(h, e)), target)
        assert one == two


def test_pullback_pushout_iso_lemma():
    # for automorphisms f, g the transported sequence is just a relabeling
    rng = random.Random(3009)
    units = {4: (1, 3), 6: (1, 5), 8: (1, 3, 5, 7), 9: (1, 2, 4, 5, 7, 8)}
    for n, m in ((4, 6), (6, 8), (9, 4)):
        a, b = zmod(n), zmod(m)
        g = ext1_group(b, a)
        e = realize_class(random_class(rng, g))
        u = rng.choice(units[n])
        v = rng.choice(units[m])
        f = make_hom(a, a, IntMatrix.from_rows([[u]]))
        f_inv = make_hom(a, a, IntMatrix.from_rows([[pow(u, -1, n)]]))
        h = make_hom(b, b, IntMatrix.from_rows([[v]]))
        h_inv = make_hom(b, b, IntMatrix.from_rows([[pow(v, -1, m)]]))
        transported = pullback_ses(h, pushout_ses(f, e))
        rebuilt = make_ses(compose(e.i, f_inv), compose(h_inv, e.p))
        assert are_equivalent(transported, rebuilt) is not None


def test_morphism_iff_pushout_equivalent():
    # a morphism (alpha, mu, id) exists exactly when alpha_* E matches F
    rng = random.Random(3010)
    hits = 0
    for _ in range(15):
        a, b, g = random_class_setup(rng)
        a2 = random_finite(rng)
        basis = hom_group(a, a2).basis
        alpha = rng.choice(basis) if basis else zero_hom(a, a2)
        e = realize_class(random_class(rng, g))
        g2 = ext1_group(b, a2)
        f = realize_class(random_class(rng, g2))
        mu = morphism_between(e, f, alpha, identity_hom(b))
        equivalent = are_equivalent(pushout_ses(alpha, e), f) is not None
        assert (mu is not None) == equivalent
        if mu is not None:
            assert compose(mu, e.i) == compose(f.i, alpha)
            assert compose(f.p, mu) == e.p
            hits += 1
    assert hits > 0


def test_split_self_equivalences_count_hom():
    for a_mod, b_mod in ((2, 2), (4, 2), (2, 3)):
        a, b = zmod(a_mod), zmod(b_mod)
        s = split_ses(a, b)
        hg = hom_group(s.E, s.E)
        count = 0
        for el in hg.group.elements():
            phi = hg.hom_of(el)
            if compose(phi, s.i) == s.i and compose(s.p, phi) == s.p:
                count += 1
        assert count == hom_group(b, a).group.order()


# ---------------------------------------------------------------- six term

def canonical_forms(groups):
    return [g.canonical_form for g in groups]


def test_six_term_covariant_frozen():
    e = seq_z_mult_quot(2)
    groups, maps, report = six_term(e, zmod(2), "covariant")
    assert canonical_forms(groups) == [
        (0, ()), (0, ()), (0, (2,)), (0, (2,)), (0, (2,)), (0, (2,))]
    assert report.all_exact()


def test_six_term_contravariant_frozen():
    e = seq_z_mult_quot(2)
    groups, maps, report = six_term(e, zmod(2), "contravariant")
    assert canonical_forms(groups) == [
        (0, (2,)), (0, (2,)), (0, (2,)), (0, (2,)), (0, ()), (0, ())]
    assert report.all_exact()


def test_six_term_coprime():
    e = seq_z_mult_quot(3)
    groups, maps, report = six_term(e, zmod(2), "covariant")
    assert canonical_forms(groups) == [
        (0, ()), (0, ()), (0, ()), (0, (2,)), (0, (2,)), (0, ())]
    assert report.all_exact()


def test_six_term_split_connecting_zero():
    e = split_ses(zmod(4), zmod(6))
    for variance in ("covariant", "contravariant"):
        groups, maps, report = six_term(e, zmod(12), variance)
        assert maps[2].is_zero()
        assert report.all_exact()


def test_six_term_random_exactness():
    rng = random.Random(3011)
    for _ in range(6):
        a, b, g = random_class_setup(rng)
        e = realize_class(random_class(rng, g))
        m = random_finite(rng)
        for variance in ("covariant", "contravariant"):
            _, _, report = six_term(e, m, variance)
            assert report.all_exact()
