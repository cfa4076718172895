"""Independent oracles that the tests compare the engine against.

nerve_ext reads Ext of presheaves on a finite poset off the nerve, with no
resolution by representables.  For B objectwise Z-free, Ext^n(B, A) is
H^n of the normalized cochain complex with one term Hom(B(x0), A(xn)) per
strict chain x0 > ... > xn, and the bar differential: B acts on the first
face, A on the last, and the inner faces drop an element (Mitchell,
"Rings with several objects", Adv. Math. 8, 1972; Baues and Wirsching,
"Cohomology of small categories", J. Pure Appl. Algebra 38, 1985).
"""

from extcalc import fpab, resolution
from extcalc.exactint import IntMatrix


def strict_chains(site, length):
    """Every chain x0 > x1 > ... of `length` elements, lexicographically."""
    chains = [(x,) for x in site.elements()]
    for _ in range(length - 1):
        chains = [ch + (y,) for ch in chains for y in site.elements()
                  if y != ch[-1] and site.leq[y][ch[-1]]]
    return chains


def _faces(b, a, tau):
    """(sign, face, left, right) per term sign·left·f(face)·right of the
    coboundary (δf)(tau), a side None the identity."""
    n = len(tau) - 2
    yield 1, tau[1:], None, b.res(tau[1], tau[0]).matrix
    for i in range(1, n + 1):
        yield (-1) ** i, tau[:i] + tau[i + 1:], None, None
    yield (-1) ** (n + 1), tau[:-1], a.res(tau[-1], tau[-2]).matrix, None


def nerve_complex(b, a, top):
    """The nerve cochain complex of (B, A) in degrees 0..top."""
    chains = [strict_chains(b.site, n + 1) for n in range(top + 1)]
    hgs = [{ch: fpab.hom_group(b.stalk(ch[0]), a.stalk(ch[-1])) for ch in cs}
           for cs in chains]
    sums = [fpab.direct_sum_many([hg[ch].group for ch in cs])
            for hg, cs in zip(hgs, chains)]
    maps = []
    for n in range(top):
        (src, src_off), (tgt, tgt_off) = sums[n], sums[n + 1]
        rows = [[0] * src.gens for _ in range(tgt.gens)]
        for t, tau in enumerate(chains[n + 1]):
            for sign, face, left, right in _faces(b, a, tau):
                s = chains[n].index(face)
                block = fpab.induced_hom_group_map(
                    hgs[n][face], hgs[n + 1][tau], left, right).matrix
                for i, row in enumerate(block.data):
                    out = rows[tgt_off[t] + i]
                    for j, x in enumerate(row):
                        out[src_off[s] + j] += sign * x
        maps.append(fpab.make_hom(src, tgt, IntMatrix.from_rows(
            rows, cols=src.gens)))
    return resolution.FpAbComplex([g for g, _ in sums], maps)


def nerve_ext_table(site, b, a, degrees):
    """{n: Ext^n(B, A)} of presheaves on `site`, for B objectwise Z-free,
    from one nerve complex."""
    if b.site != site or a.site != site:
        raise ValueError("presheaves must live on the given site")
    if any(s.invariant_factors for s in b.stalks):
        raise ValueError("the nerve computes Ext only for Z-free B")
    complex_ = nerve_complex(b, a, max(degrees) + 1)
    return {n: resolution.cohomology(complex_, n) for n in degrees}


def nerve_ext(site, b, a, n):
    """Ext^n(B, A) of presheaves on `site`, for B objectwise Z-free."""
    return nerve_ext_table(site, b, a, [n])[n]
