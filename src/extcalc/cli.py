"""Command line front end for the Ext engine.

Input is a JSON document of named definitions, read from a file or
standard input.  Sections, all optional:

  groups         name -> shorthand ("0", "Z", "Z^r", "Z/n", sums with "+")
                 or {"gens": k, "relations": [[relator column], ...]}
  matrices       name -> row-major integer matrix
  homs           name -> {"src": group, "tgt": group, "matrix": rows}
  sequences      name -> {"i": hom, "p": hom}   (a short exact sequence)
  finite_groups  name -> "cyclic n" or {"table": [[...]]}
  gmodules       name -> {"group": ref, "module": group desc,
                          "action": {"g": rows, ...}}  (identity optional)
  posets         name -> {"size": n, "relations": [[d, c], ...]}
  presheaves     name -> {"poset": ref, "stalks": [group desc, ...],
                          "res": {"d<=c": rows}}  (map F(c) -> F(d))

Hom and restriction matrices are row major with tgt.gens rows and
src.gens columns; group relations are relator columns.  Exit codes:
0 success, 3 parse or reference error, 4 validation error, 5
computation-domain error (argparse itself exits 2 on usage errors).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections.abc import Mapping
from typing import List, Optional, Tuple

from . import fpab, groupring, poset_sheaf, resolution, ses
from .exactint import DimensionMismatch, IntMatrix, snf, work_cap
from .fpab import FpAbGroup, FpAbHom, IllDefined, NotEpi, NotFree

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_DOMAIN = 5

DEGREE_CAP = 6
POSET_SIZE_CAP = 12
# a finite group's table check is cubic in its order: 0.3 to 0.45 s at
# order 200 on a 2-core VM, 1.1 s at 300
FINITE_GROUP_ORDER_CAP = 200
# matrices with a zero dimension meter no cells: at a million generators
# external-ext on 12 free stalks took 12.7 s and 1.4 GB to be refused,
# and at this cap every request measured ends within 1.7 s on a 2-core VM
GENERATOR_CAP = 100_000
# slowest 7-element poset measured, 5 below 2 tops: 2.7 s on a 2-core VM
WITNESS_POSET_SIZE_CAP = 7
# Work cap, in matrix cells, of every request, metered by exactint.work_cap:
# the largest accepted request measured (README) meters 58.8 million, and
# every request measured past the cap stops within 8 s on a 2-core VM.
WORK_CELL_CAP = 60_000_000

_SECTIONS = ("groups", "matrices", "homs", "sequences", "finite_groups",
             "gmodules", "posets", "presheaves")


class CliParseError(Exception):
    """Document syntax, structure, or reference failure."""


class CliDomainError(Exception):
    """The request is outside what the engine computes."""


_VALIDATION_ERRORS = (IllDefined, DimensionMismatch,
                      groupring.GroupLawError, groupring.NotEquivariant,
                      poset_sheaf.PosetError, poset_sheaf.SiteMismatch,
                      ses.NotMono, ses.NotExact)


# -------------------------------------------------------------- display

def _matrix_rows(m: IntMatrix) -> List[List[int]]:
    return [list(m.row(i)) for i in range(m.rows)]


# --------------------------------------------------------------- parsing

def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CliParseError(msg)


def _int_entry(x, where: str) -> int:
    _expect(isinstance(x, int) and not isinstance(x, bool),
            f"{where}: matrix entries must be integers")
    return x


def _rows_matrix(data, rows: int, cols: int, where: str) -> IntMatrix:
    _expect(isinstance(data, list), f"{where}: expected a list of rows")
    _expect(len(data) == rows,
            f"{where}: expected {rows} rows, got {len(data)}")
    out = []
    for r, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == cols,
                f"{where}: row {r} must have {cols} entries")
        out.append([_int_entry(x, where) for x in row])
    return IntMatrix.from_rows(out, cols=cols)


def _free_matrix(data, where: str) -> IntMatrix:
    _expect(isinstance(data, list), f"{where}: expected a list of rows")
    cols = None
    out = []
    for r, row in enumerate(data):
        _expect(isinstance(row, list), f"{where}: row {r} is not a list")
        if cols is None:
            cols = len(row)
        _expect(len(row) == cols, f"{where}: ragged row {r}")
        out.append([_int_entry(x, where) for x in row])
    return IntMatrix.from_rows(out, cols=cols or 0)


_SHORTHAND = re.compile(r"Z(?:\^(\d+)|/(\d+))?$")


def _group_token(tok: str, where: str) -> Tuple[int, Optional[int]]:
    """(generators, order) of a shorthand summand: Z^r is (r, None), Z/n
    is (1, n) and 0 is (0, None)."""
    t = tok.strip()
    if t == "0":
        return 0, None
    m = _SHORTHAND.match(t)
    _expect(m is not None, f"{where}: cannot read group shorthand {tok!r}")
    if m.group(2) is not None:
        n = int(m.group(2))
        _expect(n >= 1, f"{where}: Z/n needs n >= 1")
        return 1, n
    return int(m.group(1) or 1), None


def _cap(what: str, value: int, cap: int) -> None:
    """Refuse a request past one of the caps above, before any work."""
    if value > cap:
        raise CliDomainError(f"{what} is capped at {cap}; got {value}")


def group_from_desc(desc, doc: Optional["Document"], where: str) -> FpAbGroup:
    """Group from a document name, shorthand string, or presentation."""
    if isinstance(desc, str):
        if doc is not None and desc in doc.groups:
            return doc.groups[desc]
        if "Z" in desc or desc.strip() == "0":
            tokens = [_group_token(p, where) for p in desc.split("+")]
            _cap(f"{where}: generator count", sum(g for g, _ in tokens),
                 GENERATOR_CAP)
            summands = [fpab.zmod(n) if n else fpab.free_abelian(g)
                        for g, n in tokens]
            if len(summands) == 1:
                return summands[0]
            total, _ = fpab.direct_sum_many(summands)
            return total
        raise CliParseError(f"{where}: unknown group reference {desc!r}")
    if isinstance(desc, dict):
        _expect(set(desc) <= {"gens", "relations"},
                f"{where}: group takes only gens and relations")
        gens = desc.get("gens")
        _expect(isinstance(gens, int) and not isinstance(gens, bool)
                and gens >= 0, f"{where}: gens must be a nonnegative integer")
        _cap(f"{where}: generator count", gens, GENERATOR_CAP)
        rel_cols = desc.get("relations", [])
        _expect(isinstance(rel_cols, list), f"{where}: relations must be "
                "a list of relator columns")
        cols = []
        for k, col in enumerate(rel_cols):
            _expect(isinstance(col, list) and len(col) == gens,
                    f"{where}: relator {k} must have {gens} entries")
            cols.append([_int_entry(x, where) for x in col])
        return fpab.make_group(gens, IntMatrix.from_cols(cols, rows=gens))
    raise CliParseError(f"{where}: expected a group name, shorthand, or "
                        "presentation object")


_RES_KEY = re.compile(r"(\d+)<=(\d+)$")


class _Section(Mapping):
    """A document section: its names, each definition built on first read."""

    def __init__(self, raw: dict, label: str, build):
        self._raw, self._label, self._build, self._built = raw, label, build, {}

    def __contains__(self, name) -> bool:
        return name in self._raw

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def __getitem__(self, name: str):
        if name not in self._built:
            try:
                self._built[name] = self._build(name, self._raw[name])
            except _VALIDATION_ERRORS as exc:
                raise type(exc)(f"{self._label} {name!r}: {exc}") from exc
        return self._built[name]


class Document:
    """Named definitions from one document.  Sections and names are checked
    on parsing; a definition is built and validated when a command first
    reads it, directly or through a reference, under the command's meter."""

    __slots__ = ("raw",) + _SECTIONS

    def __init__(self, raw: dict):
        self.raw = raw
        for key, label, build in (
                ("groups", "group", lambda name, desc: group_from_desc(
                    desc, None, f"group {name!r}")),
                ("matrices", "matrix",
                 lambda name, desc: _free_matrix(desc, f"matrix {name!r}")),
                ("homs", "hom", self._hom),
                ("sequences", "sequence", self._sequence),
                ("finite_groups", "finite group", self._finite_group),
                ("gmodules", "gmodule", self._gmodule),
                ("posets", "poset", self._poset),
                ("presheaves", "presheaf", self._presheaf)):
            setattr(self, key, _Section(_section(raw, key), label, build))

    def _hom(self, name: str, desc) -> FpAbHom:
        where = f"hom {name!r}"
        _expect(isinstance(desc, dict) and set(desc) == {"src", "tgt",
                                                         "matrix"},
                f"{where}: needs exactly src, tgt, matrix")
        src = group_from_desc(desc["src"], self, where)
        tgt = group_from_desc(desc["tgt"], self, where)
        matrix = _rows_matrix(desc["matrix"], tgt.gens, src.gens, where)
        return FpAbHom(src, tgt, matrix)

    def _sequence(self, name: str, desc) -> ses.ShortExactSeq:
        where = f"sequence {name!r}"
        _expect(isinstance(desc, dict) and set(desc) == {"i", "p"},
                f"{where}: needs exactly i and p")
        for k in ("i", "p"):
            _expect(desc[k] in self.homs,
                    f"{where}: unknown hom reference {desc[k]!r}")
        return ses.make_ses(self.homs[desc["i"]], self.homs[desc["p"]])

    def _finite_group(self, name: str, desc) -> groupring.FiniteGroup:
        where = f"finite group {name!r}"
        if isinstance(desc, str):
            m = re.match(r"cyclic (\d+)$", desc.strip())
            _expect(m is not None, f"{where}: unknown shorthand {desc!r}")
            n = int(m.group(1))
            _cap(f"{where}: order", n, FINITE_GROUP_ORDER_CAP)
            return groupring.cyclic(n)
        _expect(isinstance(desc, dict) and set(desc) == {"table"},
                f"{where}: needs a table or a 'cyclic n' shorthand")
        table = desc["table"]
        _expect(isinstance(table, list)
                and all(isinstance(r, list) for r in table),
                f"{where}: table must be a list of rows")
        _cap(f"{where}: order", len(table), FINITE_GROUP_ORDER_CAP)
        return groupring.make_group(
            [[_int_entry(x, where) for x in row] for row in table])

    def _gmodule(self, name: str, desc) -> groupring.GModule:
        where = f"gmodule {name!r}"
        _expect(isinstance(desc, dict) and set(desc) == {"group", "module",
                                                         "action"},
                f"{where}: needs exactly group, module, action")
        _expect(desc["group"] in self.finite_groups,
                f"{where}: unknown finite group reference {desc['group']!r}")
        g = self.finite_groups[desc["group"]]
        m = group_from_desc(desc["module"], self, where)
        action_desc = desc["action"]
        _expect(isinstance(action_desc, dict),
                f"{where}: action must map element indices to matrices")
        action = []
        for e in range(g.order):
            key = str(e)
            if key in action_desc:
                action.append(FpAbHom(m, m, _rows_matrix(
                    action_desc[key], m.gens, m.gens, where)))
            elif e == g.identity:
                action.append(fpab.identity_hom(m))
            else:
                raise CliParseError(f"{where}: missing action for "
                                    f"element {e}")
        extra = set(action_desc) - {str(e) for e in range(g.order)}
        _expect(not extra, f"{where}: action names nonexistent elements "
                f"{sorted(extra)}")
        return groupring.GModule(g, m, action)

    def _poset(self, name: str, desc) -> poset_sheaf.FinitePoset:
        where = f"poset {name!r}"
        _expect(isinstance(desc, dict) and set(desc) <= {"size", "relations"}
                and "size" in desc, f"{where}: needs size and relations")
        size = desc["size"]
        _expect(isinstance(size, int) and not isinstance(size, bool)
                and size >= 0, f"{where}: size must be a nonnegative integer")
        _cap("poset size", size, POSET_SIZE_CAP)  # before the O(n^3) closure
        rels = desc.get("relations", [])
        _expect(isinstance(rels, list), f"{where}: relations must be a list")
        pairs = []
        for k, pair in enumerate(rels):
            _expect(isinstance(pair, list) and len(pair) == 2,
                    f"{where}: relation {k} must be a pair")
            pairs.append((_int_entry(pair[0], where),
                          _int_entry(pair[1], where)))
        return poset_sheaf.make_poset(size, pairs)

    def _presheaf(self, name: str, desc) -> poset_sheaf.AbPresheaf:
        where = f"presheaf {name!r}"
        _expect(isinstance(desc, dict) and set(desc) == {"poset", "stalks",
                                                         "res"},
                f"{where}: needs exactly poset, stalks, res")
        _expect(desc["poset"] in self.posets,
                f"{where}: unknown poset reference {desc['poset']!r}")
        site = self.posets[desc["poset"]]
        stalk_descs = desc["stalks"]
        _expect(isinstance(stalk_descs, list)
                and len(stalk_descs) == site.size,
                f"{where}: needs exactly {site.size} stalks")
        stalks = [group_from_desc(s, self, where) for s in stalk_descs]
        res_desc = desc["res"]
        _expect(isinstance(res_desc, dict),
                f"{where}: res must map 'd<=c' keys to matrices")
        res = {}
        for key, data in res_desc.items():
            m = _RES_KEY.match(key)
            _expect(m is not None,
                    f"{where}: res key {key!r} is not of the form 'd<=c'")
            d, c = int(m.group(1)), int(m.group(2))
            _expect(0 <= d < site.size and 0 <= c < site.size,
                    f"{where}: res key {key!r} is out of range")
            res[(d, c)] = FpAbHom(
                stalks[c], stalks[d],
                _rows_matrix(data, stalks[d].gens, stalks[c].gens,
                             f"{where} res {key!r}"))
        return poset_sheaf.AbPresheaf(site, stalks, res)


def _section(raw: dict, key: str) -> dict:
    sec = raw.get(key, {})
    if not isinstance(sec, dict):
        raise CliParseError(f"section {key!r} must be an object")
    for name in sec:
        if not isinstance(name, str) or not name:
            raise CliParseError(f"section {key!r} has an invalid name")
    return sec


def parse_document(text: str) -> Document:
    if not text.strip():
        return Document({})
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliParseError(f"syntax error at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise CliParseError("document root must be an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise CliParseError(f"unknown sections: {sorted(unknown)}")
    return Document(raw)


def emit_document(doc: Document) -> str:
    """Canonical re-serialization; parses back to an equal document."""
    return json.dumps(doc.raw, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------- commands

def _load(args) -> Document:
    if args.input is None:
        return Document({})
    if args.input == "-":
        return parse_document(sys.stdin.read())
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise CliParseError(f"cannot read {args.input}: {exc.strerror}")


def _need(mapping: dict, name: str, kind: str):
    if name not in mapping:
        raise CliParseError(f"unknown {kind} reference {name!r}")
    return mapping[name]


def _cmd_snf(args, doc: Document) -> dict:
    m = _need(doc.matrices, args.matrix, "matrix")
    dec = snf(m)
    ok = dec.U * m * dec.V == dec.D
    if not ok:
        raise RuntimeError("Smith decomposition failed verification")
    return {
        "command": "snf",
        "matrix": args.matrix,
        "diagonal": dec.diagonal(),
        "D": _matrix_rows(dec.D),
        "U": _matrix_rows(dec.U),
        "V": _matrix_rows(dec.V),
        "verified": True,
    }


def _cmd_group(args, doc: Document) -> dict:
    g = group_from_desc(args.group, doc, "group argument")
    rank, torsion = g.canonical_form
    return {
        "command": "group",
        "group": args.group,
        "result": fpab.describe(g),
        "rank": rank,
        "torsion": list(torsion),
    }


def _cmd_hom(args, doc: Document) -> dict:
    src = group_from_desc(args.src, doc, "hom src")
    tgt = group_from_desc(args.tgt, doc, "hom tgt")
    hg = fpab.hom_group(src, tgt)
    return {
        "command": "hom",
        "src": args.src,
        "tgt": args.tgt,
        "result": fpab.describe(hg.group),
    }


def _degree_list(args) -> List[int]:
    for flag, k in (("--n", args.n), ("--max-deg", args.max_deg)):
        if k is not None and k < 0:
            raise CliDomainError(f"{flag} must be nonnegative")
    if args.max_deg is not None:
        return list(range(args.max_deg + 1))
    return [1 if args.n is None else args.n]


def _put_degrees(out: dict, args, table: dict) -> dict:
    forms = {n: fpab.describe(data.group) for n, data in table.items()}
    if args.max_deg is not None:
        out["max_deg"] = args.max_deg
        out["results"] = {str(n): f for n, f in forms.items()}
    else:
        (n, form), = forms.items()
        out["n"] = n
        out["result"] = form
    return out


def _cmd_ext(args, doc: Document) -> dict:
    b = group_from_desc(args.B, doc, "ext B")
    a = group_from_desc(args.A, doc, "ext A")
    table = resolution.ext_table(resolution.z_context(), b, a,
                                 _degree_list(args))
    if 1 in table and (ses.ext1_group(b, a).group.canonical_form
                       != table[1].group.canonical_form):
        raise RuntimeError("resolution Ext^1 disagrees with the "
                           "presentation-level computation")
    return _put_degrees({"command": "ext", "B": args.B, "A": args.A},
                        args, table)


def _parse_coords(text: str, gens: int, what: str) -> IntMatrix:
    parts = [p.strip() for p in text.split(",")] if text else []
    if parts == [""]:
        parts = []
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise CliDomainError(f"{what} must be comma-separated integers")
    if len(vals) != gens:
        raise CliDomainError(f"{what} needs exactly {gens} entries")
    return IntMatrix.column(vals)


def _cmd_baer(args, doc: Document) -> dict:
    b = group_from_desc(args.B, doc, "baer B")
    a = group_from_desc(args.A, doc, "baer A")
    ext = ses.ext1_group(b, a)
    out = {
        "command": "baer",
        "B": args.B,
        "A": args.A,
        "ext1": fpab.describe(ext.group),
    }
    if args.i is not None or args.j is not None:
        if args.i is None or args.j is None:
            raise CliDomainError("class sum needs both --i and --j")
        ci = ext.class_element(_parse_coords(args.i, ext.group.gens, "--i"))
        cj = ext.class_element(_parse_coords(args.j, ext.group.gens, "--j"))
        total = ses.class_of(ses.baer_sum(ses.realize_class(ci),
                                          ses.realize_class(cj)), ext)
        splits = ses.is_split(ses.realize_class(total)) is not None
        if splits != total.is_zero():
            raise RuntimeError("splitting disagrees with the zero class")
        out.update({
            "i": list(ci.coords.coords.col(0)),
            "j": list(cj.coords.coords.col(0)),
            "sum": list(total.coords.coords.col(0)),
            "sum_splits": splits,
        })
        return out
    # law-verification mode over a deterministic class sample
    sample = [ext.zero_class()]
    for k in range(ext.group.gens):
        sample.append(ext.class_element(IntMatrix.column(
            [1 if r == k else 0 for r in range(ext.group.gens)])))
    sample = sample[:3]
    seqs = [ses.realize_class(c) for c in sample]
    comm = all(
        ses.class_of(ses.baer_sum(e, f), ext)
        == ses.class_of(ses.baer_sum(f, e), ext)
        for e in seqs for f in seqs)
    assoc = all(
        ses.class_of(ses.baer_sum(ses.baer_sum(e, f), g), ext)
        == ses.class_of(ses.baer_sum(e, ses.baer_sum(f, g)), ext)
        for e in seqs for f in seqs for g in seqs)
    zero_seq = ses.realize_class(ext.zero_class())
    ident = all(
        ses.class_of(ses.baer_sum(e, zero_seq), ext)
        == ses.class_of(e, ext) for e in seqs)
    inv = all(
        ses.is_split(ses.baer_sum(e, ses.realize_class(-ses.class_of(e,
                                                                     ext))))
        is not None for e in seqs)
    out.update({
        "classes_sampled": len(sample),
        "commutative": comm,
        "associative": assoc,
        "identity": ident,
        "inverses": inv,
    })
    if not (comm and assoc and ident and inv):
        raise RuntimeError("Baer sum group law verification failed")
    return out


def _cmd_six_term(args, doc: Document) -> dict:
    e = _need(doc.sequences, args.ses, "sequence")
    m = group_from_desc(args.M, doc, "six-term M")
    variance = {"co": "covariant", "contra": "contravariant"}[args.variance]
    groups, _, report = ses.six_term(e, m, variance)
    return {
        "command": "six-term",
        "ses": args.ses,
        "M": args.M,
        "variance": args.variance,
        "groups": [fpab.describe(g) for g in groups],
        "left_exact": report.left_exact,
        "interior": list(report.interior),
        "right_exact": report.right_exact,
        "all_exact": report.all_exact(),
    }


def _cmd_group_cohomology(args, doc: Document) -> dict:
    g = _need(doc.finite_groups, args.G, "finite group")
    degrees = _degree_list(args)
    top = max(degrees)
    _cap("cohomology degree", top, DEGREE_CAP)
    if args.M is None:
        module = groupring.trivial_module(g, fpab.free_abelian(1))
        module_name = "trivial Z"
    else:
        module = _need(doc.gmodules, args.M, "gmodule")
        if module.G != g:
            raise CliDomainError(f"gmodule {args.M!r} is over a different "
                                 "group")
        module_name = args.M
    table = resolution.cohomology_table(
        groupring.greedy_resolution(g, top + 1), module, degrees)
    return _put_degrees({"command": "group-cohomology", "G": args.G,
                         "M": module_name}, args, table)


def _cmd_fixed_points(args, doc: Document) -> dict:
    module = _need(doc.gmodules, args.M, "gmodule")
    group, _ = groupring.fixed_points(module)
    return {
        "command": "fixed-points",
        "M": args.M,
        "result": fpab.describe(group),
    }


def _presheaf_result(p: poset_sheaf.AbPresheaf) -> dict:
    out = {
        "stalks": [fpab.describe(s) for s in p.stalks],
        "restrictions": {f"{d}<={c}": _matrix_rows(h.matrix)
                         for (d, c), h in sorted(p.maps.items())},
    }
    if all(p.site.is_leq(d, c) or p.site.is_leq(c, d)
           for d in p.site.elements() for c in p.site.elements()):
        out["chain_form"] = " <- ".join(fpab.describe(s) for s in p.stalks)
    return out


def _cmd_sheaf_ext(args, doc: Document) -> dict:
    b = _need(doc.presheaves, args.B, "presheaf")
    a = _need(doc.presheaves, args.A, "presheaf")
    degrees = _degree_list(args)
    results = poset_sheaf.sheaf_ext_table(b, a, degrees, args.method)
    table = {n: _presheaf_result(r.presheaf) for n, r in results.items()}
    out = {"command": "sheaf-ext", "B": args.B, "A": args.A,
           "method": args.method}
    if args.max_deg is not None:
        return dict(out, max_deg=args.max_deg,
                    degrees={str(n): r for n, r in table.items()})
    return dict(out, n=degrees[0], **table[degrees[0]])


def _cmd_external_ext(args, doc: Document) -> dict:
    b = _need(doc.presheaves, args.B, "presheaf")
    a = _need(doc.presheaves, args.A, "presheaf")
    degrees = _degree_list(args)
    table = poset_sheaf.external_ext_table(b, a, degrees)
    return _put_degrees({"command": "external-ext", "B": args.B,
                         "A": args.A}, args, table)


def _cmd_global_sections(args, doc: Document) -> dict:
    f = _need(doc.presheaves, args.F, "presheaf")
    group = poset_sheaf.global_sections(f)
    return {
        "command": "global-sections",
        "F": args.F,
        "result": fpab.describe(group),
    }


def _cmd_witness_search(args, doc: Document) -> dict:
    site = _need(doc.posets, args.poset, "poset")
    _cap("poset size", site.size, WITNESS_POSET_SIZE_CAP)
    if not 0 <= args.c < site.size:
        raise CliDomainError(f"element {args.c} is not in the poset")
    found = poset_sheaf.witness_search(site, args.c)
    out = {
        "command": "witness-search",
        "poset": args.poset,
        "c": args.c,
        "found": found is not None,
    }
    if found is not None:
        sigma, stalk = found
        out.update({
            "stalk": stalk,
            "src_stalks": [fpab.describe(s) for s in sigma.src.stalks],
            "tgt_stalks": [fpab.describe(s) for s in sigma.tgt.stalks],
            "components": [_matrix_rows(h.matrix)
                           for h in sigma.components],
        })
    return out


# ------------------------------------------------------------- rendering

def _render_human(result: dict) -> str:
    cmd = result["command"]
    lines = []
    if cmd == "snf":
        lines.append("diagonal: " + (", ".join(str(d) for d
                                               in result["diagonal"])
                                     or "(empty)"))
        lines.append("verified: U*A*V = D")
    elif cmd in ("group", "hom", "global-sections", "fixed-points"):
        label = {
            "group": f"{result.get('group')}",
            "hom": f"Hom({result.get('src')}, {result.get('tgt')})",
            "global-sections": f"Gamma({result.get('F')})",
            "fixed-points": f"({result.get('M')})^G",
        }[cmd]
        lines.append(f"{label} = {result['result']}")
    elif cmd in ("ext", "external-ext", "group-cohomology"):
        sym = {"ext": "Ext", "external-ext": "eExt"}.get(cmd, "H")
        pair = (f"({result['G']}; {result['M']})" if sym == "H"
                else f"({result['B']}, {result['A']})")
        forms = result.get("results") or {result["n"]: result["result"]}
        for n in sorted(forms, key=int):
            lines.append(f"{sym}^{n}{pair} = {forms[n]}")
    elif cmd == "baer":
        lines.append(f"Ext^1({result['B']}, {result['A']}) "
                     f"= {result['ext1']}")
        if "sum" in result:
            lines.append(f"class {result['i']} + class {result['j']} "
                         f"= class {result['sum']}")
            lines.append("sum splits" if result["sum_splits"]
                         else "sum does not split")
        else:
            lines.append(f"group laws verified on "
                         f"{result['classes_sampled']} classes: "
                         "commutative, associative, identity, inverses")
    elif cmd == "six-term":
        lines.append(f"variance: {result['variance']}")
        lines.append(" -> ".join(result["groups"]))
        lines.append("left exact: " + ("yes" if result["left_exact"]
                                       else "NO"))
        for k, ok in enumerate(result["interior"]):
            lines.append(f"exact at node {k + 1}: "
                         + ("yes" if ok else "NO"))
        lines.append("right exact: " + ("yes" if result["right_exact"]
                                        else "NO"))
        lines.append("all exact: " + ("yes" if result["all_exact"]
                                      else "NO"))
    elif cmd == "sheaf-ext":
        pair = f"({result['B']}, {result['A']})"
        blocks = result.get("degrees") or {result["n"]: result}
        for n in sorted(blocks, key=int):
            lines.append(f"sheaf Ext^{n}{pair} stalks:")
            data = blocks[n]
            for c, s in enumerate(data["stalks"]):
                lines.append(f"  element {c}: {s}")
            if "chain_form" in data:
                lines.append(f"presheaf: {data['chain_form']}")
    elif cmd == "witness-search":
        if result["found"]:
            lines.append(f"witness found at stalk {result['stalk']}")
            lines.append("source stalks: "
                         + ", ".join(result["src_stalks"]))
            lines.append("target stalks: "
                         + ", ".join(result["tgt_stalks"]))
            for c, rows in enumerate(result["components"]):
                lines.append(f"component at {c}: {rows}")
        else:
            lines.append("no witness found in the bounded family")
    else:
        raise RuntimeError(f"no renderer for {cmd}")
    return "\n".join(lines) + "\n"


def _emit(result: dict, fmt: str) -> None:
    if fmt == "machine":
        result = dict(result)
        result["status"] = "ok"
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_human(result))


# ------------------------------------------------------------ dispatcher

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and then reused."""
    parser = argparse.ArgumentParser(
        prog="extcalc",
        description="Exact Ext computations for presented abelian groups, "
                    "modules over finite group rings, and presheaves on "
                    "finite posets.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, configure):
        p = sub.add_parser(name)
        p.add_argument("--input", default=None,
                       help="JSON document path, or - for stdin")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
        configure(p)
        return p

    add("snf", lambda p: p.add_argument("--matrix", required=True))
    add("group", lambda p: p.add_argument("--group", required=True))

    def hom_args(p):
        p.add_argument("--src", required=True)
        p.add_argument("--tgt", required=True)
    add("hom", hom_args)

    def degree_flags(p):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--n", type=int, default=None,
                         help="single degree (default 1)")
        grp.add_argument("--max-deg", type=int, default=None,
                         help="compute every degree from 0 up to this")

    def pair_args(p):
        p.add_argument("--B", required=True)
        p.add_argument("--A", required=True)
        degree_flags(p)
    add("ext", pair_args)

    def baer_args(p):
        p.add_argument("--B", required=True)
        p.add_argument("--A", required=True)
        p.add_argument("--i", default=None,
                       help="comma-separated class coordinates")
        p.add_argument("--j", default=None)
    add("baer", baer_args)

    def six_args(p):
        p.add_argument("--ses", required=True)
        p.add_argument("--M", required=True)
        p.add_argument("--variance", choices=("co", "contra"),
                       default="co")
    add("six-term", six_args)

    def gc_args(p):
        p.add_argument("--G", required=True)
        p.add_argument("--M", default=None,
                       help="gmodule name; defaults to the trivial Z module")
        degree_flags(p)
    add("group-cohomology", gc_args)

    add("fixed-points", lambda p: p.add_argument("--M", required=True))

    def sheaf_args(p):
        pair_args(p)
        p.add_argument("--method", choices=("general", "fast", "auto"),
                       default="general")
    add("sheaf-ext", sheaf_args)

    add("external-ext", pair_args)

    add("global-sections", lambda p: p.add_argument("--F", required=True))

    def ws_args(p):
        p.add_argument("--poset", required=True)
        p.add_argument("--c", type=int, required=True)
    add("witness-search", ws_args)

    return parser


_HANDLERS = {
    "snf": _cmd_snf,
    "group": _cmd_group,
    "hom": _cmd_hom,
    "ext": _cmd_ext,
    "baer": _cmd_baer,
    "six-term": _cmd_six_term,
    "group-cohomology": _cmd_group_cohomology,
    "fixed-points": _cmd_fixed_points,
    "sheaf-ext": _cmd_sheaf_ext,
    "external-ext": _cmd_external_ext,
    "global-sections": _cmd_global_sections,
    "witness-search": _cmd_witness_search,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load(args)
        with work_cap(WORK_CELL_CAP):
            result = _HANDLERS[args.cmd](args, doc)
    except CliParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (NotFree, NotEpi, CliDomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    _emit(result, args.format)
    return EXIT_OK
