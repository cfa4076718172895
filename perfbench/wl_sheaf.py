"""Workload sheaf_ext: presheaf library calls in `poset_sheaf`.

Why: the cost is poset_sheaf bookkeeping plus many small coords_of
solves through one SnfSolver with many right-hand sides; the elimination
matrices are small.  Every input pair runs sheaf_ext with method
"general" and with method "fast" for n = 0..3, so a fast-path change
moves the fast queries while the general ones are the no-change control.
witness_search rebuilds the same internal hom for every candidate epi:
the repeated-work case a cache would exploit.

Inputs are presheaves on rooted trees of at most six elements (the root
is the bottom; chains are trees too).  The tree shapes and stalks of
every pair slot are fixed, because fast-path cost swings by an order of
magnitude with stalk choice; the seed draws every restriction map along
the tree edges (longer restrictions compose along the unique path, so
functoriality holds by construction), the element c of each
representable and of each witness search, and the query order.
"""

import math
import random

from common import Raised, form

NAME = "sheaf_ext"
WHY = ("presheaf bookkeeping and many small coords_of solves; fast and "
       "general sheaf Ext on the same inputs, plus witness_search")

# (tree parents, stalks of B, stalks of A); a stalk is (rank, torsion)
PAIRS = (
    ((None, 0), ((0, (4,)), (0, (4,))), ((0, (2,)), (0, (6,)))),
    ((None, 0), ((1, ()), (0, (6,))), ((1, ()), (0, (2,)))),
    ((None, 0), ((1, (2,)), (0, (2,))), ((0, (4,)), (1, ()))),
    ((None, 0, 0), ((0, (4,)), (1, ()), (0, (2,))),
     ((0, (2,)), (0, (6,)), (0, (4,)))),
    ((None, 0, 0), ((1, ()), (0, (6,)), (0, ())),
     ((0, (2,)), (1, ()), (0, (4,)))),
    ((None, 0, 1), ((0, (4,)), (0, (4,)), (0, ())),
     ((0, (2,)), (0, (6,)), (0, (4,)))),
    ((None, 0, 1), ((1, ()), (0, (6,)), (0, (2,))),
     ((0, (2,)), (1, ()), (1, (2,)))),
    ((None, 0, 1, 2), ((1, ()), (0, (6,)), (0, ()), (0, (2,))),
     ((0, ()), (0, (4,)), (0, (4,)), (0, (4,)))),
    ((None, 0, 0, 0), ((0, (2,)), (1, ()), (0, (4,)), (0, ())),
     ((1, ()), (0, (2,)), (0, (2,)), (0, (6,)))),
    ((None, 0, 1, 1), ((0, (6,)), (0, (2,)), (1, ()), (0, ())),
     ((0, (2,)), (0, (4,)), (0, (2,)), (1, ()))),
    ((None, 0, 0, 1, 1), ((1, ()), (0, (6,)), (0, ()), (0, (2,)), (0, ())),
     ((0, (4,)), (0, (4,)), (0, (4,)), (1, (2,)), (0, (4,)))),
    ((None, 0, 0, 1, 1), ((0, ()), (0, ()), (0, ()), (0, (2,)), (1, ())),
     ((1, (2,)), (1, (2,)), (0, (2,)), (0, (2,)), (0, (6,)))),
    ((None, 0, 0, 1, 1, 2),
     ((1, ()), (0, (6,)), (0, ()), (0, (2,)), (0, ()), (0, (4,))),
     ((0, (4,)), (0, (4,)), (1, (2,)), (0, (4,)), (1, ()), (0, ()))),
)

DEGREES = range(4)
METHODS = ("general", "fast")

# small sites for witness_search: name -> (size, generating relations)
WITNESS_SITES = {
    "chain2": (2, ((0, 1),)),
    "chain3": (3, ((0, 1), (1, 2))),
    "vee3": (3, ((0, 1), (0, 2))),
}


def _gens(stalk):
    rank, torsion = stalk
    return rank + len(torsion)


def _order(stalk, i):
    """Order of generator i of from_invariants(*stalk); 0 means free."""
    torsion = stalk[1]
    return torsion[i] if i < len(torsion) else 0


def _random_hom(rng, src, tgt):
    """Rows of a random well-defined hom between from_invariants stalks."""
    rows = []
    for i in range(_gens(tgt)):
        e = _order(tgt, i)
        row = []
        for j in range(_gens(src)):
            d = _order(src, j)
            if d == 0:
                unit = 1
            elif e == 0:
                unit = 0
            else:
                unit = e // math.gcd(d, e)
            row.append(unit * rng.randrange(-2, 3))
        rows.append(row)
    return rows


def _matmul(a, b, inner, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner))
             for j in range(cols)] for i in range(len(a))]


def _below(parents, c):
    """Strict ancestors of c, nearest first."""
    out = []
    while parents[c] is not None:
        c = parents[c]
        out.append(c)
    return out


def random_presheaf(rng, parents, stalks):
    edge = {c: _random_hom(rng, stalks[c], stalks[p])
            for c, p in enumerate(parents) if p is not None}
    res = {}
    for c in range(len(parents)):
        rows, x = edge.get(c), parents[c]
        while x is not None:
            res[f"{x}<={c}"] = rows
            if parents[x] is None:
                break
            rows = _matmul(edge[x], rows, _gens(stalks[x]),
                           _gens(stalks[c]))
            x = parents[x]
    return {"parents": list(parents), "stalks": [list(s) for s in stalks],
            "res": res}


def generate(seed):
    rng = random.Random(f"{NAME}:{seed}")
    pairs = [{"b": random_presheaf(rng, parents, sb),
              "a": random_presheaf(rng, parents, sa)}
             for parents, sb, sa in PAIRS]
    queries = []
    for p, (parents, _, _) in enumerate(PAIRS):
        for n in DEGREES:
            for method in METHODS:
                queries.append({"kind": "sheaf_ext", "pair": p, "n": n,
                                "method": method})
        queries.append({"kind": "internal_hom", "pair": p})
        queries.append({"kind": "yoneda", "pair": p,
                        "c": rng.randrange(len(parents))})
        if _is_chain(parents):
            for n in range(3):
                queries.append({"kind": "external_ext", "pair": p, "n": n})
    for site in WITNESS_SITES:
        queries.append({"kind": "witness_search", "site": site,
                        "c": rng.randrange(WITNESS_SITES[site][0])})
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    return {"queries": queries, "pairs": pairs}


def _is_chain(parents):
    return all(p == c - 1 for c, p in enumerate(parents) if p is not None)


def prepare(data, workdir):
    return [(q, data["pairs"][q["pair"]] if "pair" in q else None)
            for q in data["queries"]]


# ------------------------------------------------------------ the queries

def build(extcalc, spec):
    """An AbPresheaf from plain data."""
    fpab, ps = extcalc.fpab, extcalc.poset_sheaf
    IntMatrix = extcalc.exactint.IntMatrix
    parents = spec["parents"]
    site = ps.make_poset(len(parents), [(p, c) for c, p in enumerate(parents)
                                        if p is not None])
    stalks = [fpab.from_invariants(r, t) for r, t in spec["stalks"]]
    res = {}
    for key, rows in spec["res"].items():
        d, c = (int(x) for x in key.split("<="))
        res[(d, c)] = fpab.FpAbHom(
            stalks[c], stalks[d],
            IntMatrix.from_rows(rows, cols=stalks[c].gens))
    return ps.AbPresheaf(site, stalks, res)


def _forms(groups):
    return [form(g) for g in groups]


def run(extcalc, item):
    q, pair = item
    ps = extcalc.poset_sheaf
    kind = q["kind"]
    if kind == "witness_search":
        size, rels = WITNESS_SITES[q["site"]]
        found = ps.witness_search(ps.make_poset(size, rels), q["c"])
        if found is None:
            return None
        sigma, stalk = found
        return [stalk, _forms(sigma.src.stalks), _forms(sigma.tgt.stalks)]
    a = build(extcalc, pair["a"])
    if kind == "yoneda":
        yc = ps.free_presheaf(a.site, q["c"])
        return _forms(ps.internal_hom(yc, a).stalks)
    b = build(extcalc, pair["b"])
    if kind == "internal_hom":
        return _forms(ps.internal_hom(b, a).stalks)
    if kind == "external_ext":
        return form(ps.external_ext(b, a, q["n"]))
    result = ps.sheaf_ext(b, a, q["n"], method=q["method"])
    return {"stalks": _forms(result.presheaf.stalks),
            "gamma": form(ps.global_sections(result.presheaf))}


# ------------------------------------------------------------- checking

def _lca(parents, c, d):
    ups = [c] + _below(parents, c)
    for x in [d] + _below(parents, d):
        if x in ups:
            return x
    raise ValueError("tree has no common root")


def check(data, results, goldens):
    """Failure reason for each failed query id.

    Oracles: fast and general agree on stalks and global sections; on
    chains the global sections are the top stalk; Ext^0 stalks equal the
    internal hom; internal_hom(ZY(c), A) at d is
    A(c meet d) by Yoneda; on chains external Ext equals the sheaf Ext
    stalk at the top; witness_search matches goldens pinned per site.
    """
    failures = {}
    sheaf = {}
    for q in data["queries"]:
        if q["kind"] == "sheaf_ext" and q["id"] in results:
            sheaf[(q["pair"], q["n"], q["method"])] = results[q["id"]]
    for q in data["queries"]:
        qid = q["id"]
        if qid not in results:
            continue
        res = results[qid]
        if isinstance(res, Raised):
            failures[qid] = res.reason
            continue
        kind = q["kind"]
        if kind == "sheaf_ext":
            other = "fast" if q["method"] == "general" else "general"
            want = sheaf.get((q["pair"], q["n"], other), res)
            if _is_chain(data["pairs"][q["pair"]]["a"]["parents"]) \
                    and res["gamma"] != res["stalks"][-1]:
                want = "global sections equal to the top stalk"
        elif kind == "internal_hom":
            want = sheaf.get((q["pair"], 0, "general"), {"stalks": res})
            want = want["stalks"] if isinstance(want, dict) else want
        elif kind == "yoneda":
            spec = data["pairs"][q["pair"]]["a"]
            parents = spec["parents"]
            want = [_canonical(spec["stalks"][_lca(parents, q["c"], d)])
                    for d in range(len(parents))]
        elif kind == "external_ext":
            top = len(data["pairs"][q["pair"]]["a"]["parents"]) - 1
            general = sheaf.get((q["pair"], q["n"], "general"),
                                {"stalks": {top: res}})
            want = general["stalks"][top] if isinstance(general, dict) \
                else general
        else:
            want = goldens.get(f"{q['site']}|{q['c']}", "(no golden)")
        if res != want:
            failures[qid] = f"got {res}, expected {want}"
    return failures


def _canonical(stalk):
    rank, torsion = stalk
    return [rank, list(torsion)]
