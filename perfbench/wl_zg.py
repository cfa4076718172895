"""Workload zg_cohomology: `extcalc group-cohomology` through `cli.main`.

Why: bar coboundaries of width |G|^n make exactint's sparse elimination
the dominant cost; torsion coefficients cost far more than Z at the same
shape; `--max-deg` tables let a "one resolution per table" change show
on table queries only.  It is the only workload that goes through cli.

The groups are C1..C6, V4 and S3, each given by its multiplication table
in a CLI document; the coefficients are trivial Z, trivial Z/2, trivial
Z/3 and a sign module (Z through a character G -> {1, -1}).  The query
list is a fixed skeleton of cost classes: every (group, coefficient,
degree <= 2) single query, plus fixed heavy slots (degree 3, degree-4
anchors on C3 and C4, and tables).  The seed picks the coefficient
inside each slot's cost-equivalent alternatives, the coefficient of each
light table, the V4 character and the query order.  Relabelling group
elements is deliberately not used: it moves elimination cost by up to
nine times (pivot order), which would swamp every other effect.
"""

import contextlib
import io
import json
import math
import os
import random

from common import Raised

NAME = "zg_cohomology"
WHY = ("bar coboundaries of width |G|^n: exactint sparse elimination "
       "dominates; the only workload through cli")

GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "V4", "S3")
COEFFS = ("Z", "Z/2", "Z/3", "sign")
_MODULE_NAME = {"Z/2": "Z2", "Z/3": "Z3", "sign": "sgn"}

# (group, degree or ("table", max_deg), coefficient alternatives).
# H^4(C5; Z) is left out: at about 3 s it was half of a pass and carried
# most of the run-to-run spread; C4 and C3 keep the degree-4 anchors.
HEAVY = (
    ("C4", 4, ("Z", "sign")),
    ("C3", 4, ("Z/2", "Z/3")),
    ("C5", 3, ("Z/2", "Z/3")),
    ("C6", 3, ("Z",)),
    ("C6", 3, ("sign",)),
    ("S3", 3, ("Z", "sign")),
    ("C4", 3, ("Z/2", "Z/3")),
    ("V4", 3, ("Z/2", "Z/3")),
    ("C5", 3, ("Z", "sign")),
    ("C3", 3, ("Z/2", "Z/3")),
    ("C4", ("table", 3), ("Z/2", "Z/3")),
    ("V4", ("table", 3), ("Z", "sign")),
    ("C6", ("table", 2), ("Z/2", "Z/3")),
)


def _s3_perms():
    return [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def group_table(name):
    if name == "V4":
        return [[i ^ j for j in range(4)] for i in range(4)]
    if name == "S3":
        perms = _s3_perms()
        index = {p: i for i, p in enumerate(perms)}
        return [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                for p in perms]
    k = int(name[1:])
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def character(name, v4_mask):
    """Values of the sign module's character on each element."""
    if name == "V4":
        return [(-1) ** bin(i & v4_mask).count("1") for i in range(4)]
    if name == "S3":
        return [1 if sum(p[i] > p[j] for i in range(3)
                         for j in range(i + 1, 3)) % 2 == 0 else -1
                for p in _s3_perms()]
    k = int(name[1:])
    return [(-1) ** i if k % 2 == 0 else 1 for i in range(k)]


def generate(seed):
    rng = random.Random(f"{NAME}:{seed}")
    queries = []
    for g in GROUPS:
        for c in COEFFS:
            for n in range(3):
                queries.append({"group": g, "coeff": c, "n": n})
        queries.append({"group": g, "coeff": rng.choice(COEFFS),
                        "max_deg": 2 if g in ("C6", "S3") else 1})
    for g, deg, alts in HEAVY:
        q = {"group": g, "coeff": rng.choice(alts)}
        if isinstance(deg, tuple):
            q["max_deg"] = deg[1]
        else:
            q["n"] = deg
        queries.append(q)
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    v4_mask = rng.choice((1, 2, 3))
    docs = {g: document(g, v4_mask) for g in GROUPS}
    return {"queries": queries, "docs": docs, "v4_mask": v4_mask}


def document(g, v4_mask):
    table = group_table(g)
    order = len(table)
    gmodules = {
        "Z2": {"group": g, "module": "Z/2",
               "action": {str(e): [[1]] for e in range(1, order)}},
        "Z3": {"group": g, "module": "Z/3",
               "action": {str(e): [[1]] for e in range(1, order)}},
        "sgn": {"group": g, "module": "Z",
                "action": {str(e): [[x]] for e, x
                           in enumerate(character(g, v4_mask)) if e}},
    }
    return {"finite_groups": {g: {"table": table}}, "gmodules": gmodules}


def prepare(data, workdir):
    """Write one CLI document per group; return the argv of every query."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for g, doc in data["docs"].items():
        paths[g] = os.path.join(workdir, f"{g}.json")
        with open(paths[g], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argvs = []
    for q in data["queries"]:
        argv = ["group-cohomology", "--input", paths[q["group"]],
                "--G", q["group"], "--format", "machine"]
        if q["coeff"] != "Z":
            argv += ["--M", _MODULE_NAME[q["coeff"]]]
        if "max_deg" in q:
            argv += ["--max-deg", str(q["max_deg"])]
        else:
            argv += ["--n", str(q["n"])]
        argvs.append(argv)
    return argvs


def run(extcalc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = extcalc.cli.main(argv)
    return code, out.getvalue()


# ------------------------------------------------------------- checking

def display(rank, torsion):
    """Text form of a canonical form, as `extcalc --format machine` prints."""
    parts = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def cyclic_cohomology(k, coeff, n):
    """H^n(C_k; M) from the 2-periodic resolution, in closed form."""
    if coeff == "sign" and k % 2 == 0:
        return display(0, ()) if n % 2 == 0 else display(0, (2,))
    if coeff in ("Z", "sign"):  # the sign module of an odd group is trivial
        if n == 0:
            return display(1, ())
        return display(0, (k,) if n % 2 == 0 and k > 1 else ())
    m = int(coeff[2:])
    if n == 0:
        return display(0, (m,))
    g = math.gcd(k, m)
    return display(0, (g,) if g > 1 else ())


def expected(q, degree, data, goldens):
    g = q["group"]
    if g.startswith("C"):
        return cyclic_cohomology(int(g[1:]), q["coeff"], degree)
    coeff = q["coeff"]
    if coeff == "sign" and g == "V4":
        coeff = f"sign{data['v4_mask']}"
    return goldens.get(f"{g}|{coeff}|{degree}", "(no golden)")


def check(data, results, goldens):
    """Failure reason for each failed query id."""
    failures = {}
    for q in data["queries"]:
        if q["id"] not in results:
            continue
        res = results[q["id"]]
        if isinstance(res, Raised):
            failures[q["id"]] = res.reason
            continue
        code, text = res
        if code != 0:
            failures[q["id"]] = f"exit code {code}"
            continue
        out = json.loads(text)
        if "max_deg" in q:
            got = {int(n): v for n, v in out["results"].items()}
            want_degrees = range(q["max_deg"] + 1)
        else:
            got = {out["n"]: out["result"]}
            want_degrees = [q["n"]]
        want = {n: expected(q, n, data, goldens) for n in want_degrees}
        if got != want:
            failures[q["id"]] = f"got {got}, expected {want}"
    return failures
