"""Workload abelian: library calls over Z on finitely presented groups.

Why: thousands of tiny matrices, so object construction and dense snf on
matrices of at most about 8x8 are the cost; there are no large
resolutions and no sparse elimination at scale.  It is the control on
which a pivot-order change should move nothing, while a constructor or
allocation change should move it.

Each group is presented as Z^g modulo the columns of P D Q, where D is
the diagonal of a fixed invariant-factor slot (plus, on every other
slot, one extra generator killed by a unit relation) and P, Q are
seeded random unimodular matrices.  The invariants are therefore known
without extcalc, which gives closed-form oracles for Hom, Ext^1 and the
vanishing of Ext^{>=2}.  The seed draws P and Q, the class coordinates
and the query order.
"""

import math
import random

from common import Raised, form

NAME = "abelian"
WHY = ("thousands of tiny dense matrices over Z: construction and small "
       "snf, no sparse elimination; the pivot-order control")

# (B, A, M): each (rank, invariant factors)
SLOTS = (
    ((0, (4,)), (0, (6,)), (0, (2,))),
    ((0, (6,)), (0, (4,)), (0, (3,))),
    ((0, (2,)), (1, ()), (0, (4,))),
    ((0, (12,)), (0, (8,)), (0, (6,))),
    ((0, (2, 4)), (0, (2,)), (0, (2,))),
    ((0, (3,)), (0, (2, 6)), (1, ())),
    ((1, (2,)), (0, (4,)), (0, (2,))),
    ((0, (2, 2)), (0, (2,)), (0, (4,))),
    ((0, (6,)), (1, (3,)), (0, (3,))),
    ((0, (5,)), (0, (10,)), (0, (5,))),
    ((0, (2, 6)), (0, (4,)), (0, (2,))),
    ((0, (4,)), (0, (2, 2)), (0, (6,))),
    ((0, (9,)), (0, (3,)), (0, (3,))),
    ((0, (2,)), (0, (2,)), (0, (2,))),
    ((1, (4,)), (0, (6,)), (0, (4,))),
    ((0, (3, 6)), (0, (9,)), (0, (2,))),
    ((0, (8,)), (0, (12,)), (0, (4,))),
    ((0, (2, 2)), (1, ()), (0, (2,))),
    ((0, (10,)), (0, (4,)), (0, (5,))),
    ((1, (3,)), (0, (6,)), (0, (3,))),
    ((0, (7,)), (0, (7,)), (0, (7,))),
    ((0, (2, 4)), (0, (4,)), (0, (2,))),
    ((0, (6,)), (0, (2, 2)), (1, ())),
    ((0, (4,)), (1, (2,)), (0, (8,))),
)

KINDS = ("ext1", "baer", "roundtrip", "six_co", "six_contra",
         "ext_n1", "ext_n2", "ext_n3")


def _unimodular(rng, n, steps):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in m:  # column j += k * column i
            row[j] += k * row[i]
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def random_presentation(rng, invariants, extra):
    """(gens, relator columns) of a group with the given invariants."""
    rank, torsion = invariants
    diag = list(torsion) + [1] * extra
    gens = rank + len(diag)
    d = [[diag[j] if i == j else 0 for j in range(len(diag))]
         for i in range(gens)]
    rel = _matmul(_matmul(_unimodular(rng, gens, 3), d),
                  _unimodular(rng, len(diag), 2)) if diag else []
    cols = [list(c) for c in zip(*rel)] if diag else []
    return {"gens": gens, "cols": cols}


def generate(seed):
    rng = random.Random(f"{NAME}:{seed}")
    slots = []
    for s, (b, a, m) in enumerate(SLOTS):
        extra = s % 2
        pres = {"b": random_presentation(rng, b, extra),
                "a": random_presentation(rng, a, 0),
                "m": random_presentation(rng, m, 1 - extra)}
        # Ext^1 coordinates live on (relations of B) x (generators of A)
        width = (len(b[1]) + extra) * pres["a"]["gens"]
        pres["classes"] = [[rng.randrange(6) for _ in range(width)]
                           for _ in range(3)]
        slots.append(pres)
    queries = [{"slot": s, "kind": k} for s in range(len(SLOTS))
               for k in KINDS]
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    return {"queries": queries, "slots": slots}


def prepare(data, workdir):
    return [(q, data["slots"][q["slot"]]) for q in data["queries"]]


# ------------------------------------------------------------ the queries

def _group(extcalc, pres):
    IntMatrix = extcalc.exactint.IntMatrix
    return extcalc.fpab.make_group(
        pres["gens"], IntMatrix.from_cols(pres["cols"], rows=pres["gens"]))


def run(extcalc, item):
    q, pres = item
    ses, IntMatrix = extcalc.ses, extcalc.exactint.IntMatrix
    kind = q["kind"]
    b, a = _group(extcalc, pres["b"]), _group(extcalc, pres["a"])
    if kind.startswith("ext_n"):
        ctx = extcalc.resolution.z_context()
        return form(extcalc.resolution.ext_n(ctx, b, a, int(kind[-1])))
    ext = ses.ext1_group(b, a)
    if kind == "ext1":
        return form(ext.group)
    x, y, z = (ext.class_element(IntMatrix.column(c))
               for c in pres["classes"])
    if kind == "roundtrip":
        return [ses.class_of(ses.realize_class(x), ext) == x,
                (x + (-x)).is_zero()]
    if kind == "baer":
        ex, ey, ez = (ses.realize_class(c) for c in (x, y, z))
        zero = ses.realize_class(ext.zero_class())
        xy = ses.class_of(ses.baer_sum(ex, ey), ext)
        return [xy == x + y,
                xy == ses.class_of(ses.baer_sum(ey, ex), ext),
                ses.class_of(ses.baer_sum(ses.baer_sum(ex, ey), ez), ext)
                == ses.class_of(ses.baer_sum(ex, ses.baer_sum(ey, ez)), ext),
                ses.class_of(ses.baer_sum(ex, zero), ext) == x,
                ses.is_split(ses.baer_sum(ex, ses.realize_class(-x)))
                is not None]
    m = _group(extcalc, pres["m"])
    variance = "covariant" if kind == "six_co" else "contravariant"
    groups, _, report = ses.six_term(ses.realize_class(x), m, variance)
    return {"groups": [form(g) for g in groups],
            "all_exact": report.all_exact()}


# ------------------------------------------------------------- checking

def _prime_powers(n):
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def canonical(rank, orders):
    """Canonical form of Z^rank plus cyclic groups of the given orders."""
    by_prime = {}
    for n in orders:
        for p, q in _prime_powers(n):
            by_prime.setdefault(p, []).append(q)
    length = max((len(v) for v in by_prime.values()), default=0)
    chain = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            chain[i] *= q
    return [rank, sorted(chain)]


def hom_form(b, a):
    (rb, tb), (ra, ta) = b, a
    orders = [e for e in ta for _ in range(rb)]
    orders += [math.gcd(d, e) for d in tb for e in ta]
    return canonical(rb * ra, orders)


def ext1_form(b, a):
    _, tb = b
    ra, ta = a
    orders = [d for d in tb for _ in range(ra)]
    orders += [math.gcd(d, e) for d in tb for e in ta]
    return canonical(0, orders)


def check(data, results, goldens):
    """Failure reason for each failed query id.

    Oracles: Hom and Ext^1 from the known invariants (the gcd formula for
    cyclic groups), Ext^{>=2} over Z vanishes, the Baer-sum group laws
    and class_of(realize_class(x)) == x hold, and both six-term sequences
    are exact with the four groups not involving the middle term in
    closed form.
    """
    failures = {}
    for q in data["queries"]:
        if q["id"] not in results:
            continue
        res = results[q["id"]]
        if isinstance(res, Raised):
            failures[q["id"]] = res.reason
            continue
        b, a, m = SLOTS[q["slot"]]
        kind = q["kind"]
        if kind in ("ext1", "ext_n1"):
            ok = res == ext1_form(b, a)
        elif kind in ("ext_n2", "ext_n3"):
            ok = res == [0, []]
        elif kind in ("baer", "roundtrip"):
            ok = all(res)
        else:
            if kind == "six_co":
                outer = [hom_form(m, a), hom_form(m, b),
                         ext1_form(m, a), ext1_form(m, b)]
            else:
                outer = [hom_form(b, m), hom_form(a, m),
                         ext1_form(b, m), ext1_form(a, m)]
            got = res["groups"]
            ok = res["all_exact"] and [got[0], got[2], got[3], got[5]] \
                == outer
        if not ok:
            failures[q["id"]] = f"wrong answer {res}"
    return failures
